"""The middle-thirds Cantor measure on a base interval, and its Cantor function.

The measure on [a, b] is the self-similar probability measure of the two maps
x -> a + (x - a)/3 and x -> a + 2(b - a)/3 + (x - a)/3, each of weight 1/2.
Integrals against it are evaluated by depth-d refinement: at depth d the
measure is approximated by point masses at the cylinder-interval midpoints,
and the depth is increased until two consecutive depths agree (Richardson
stopping).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IntegrationError, UnsupportedStructureError

RICHARDSON_RTOL = 1e-9
MAX_DEPTH = 22
RATIO = 1.0 / 3.0


@dataclass(frozen=True)
class IFSSpec:
    """Middle-thirds construction on the base interval [a, b]."""

    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"Cantor base ({self.a}, {self.b}) must be finite with a < b")

    def same_construction(self, other):
        return abs(self.a - other.a) <= 1e-12 and abs(self.b - other.b) <= 1e-12


MIDDLE_THIRDS = IFSSpec()


def support_nodes(spec: IFSSpec, depth: int):
    """Cylinder midpoints and their probability weights at a given depth."""
    a, width = spec.a, spec.b - spec.a
    xs = np.array([a + width / 2.0])
    for _ in range(depth):
        xs = np.concatenate([a + RATIO * (xs - a), a + 2.0 / 3.0 * width + RATIO * (xs - a)])
    return xs, np.full(xs.size, 0.5 ** depth)


def construction_endpoints(spec: IFSSpec, depth: int):
    """Sorted endpoints of the 2^depth construction intervals at a given depth."""
    a, width = spec.a, spec.b - spec.a
    lefts = np.array([a])
    for _ in range(depth):
        lefts = np.concatenate([a + RATIO * (lefts - a),
                                a + 2.0 / 3.0 * width + RATIO * (lefts - a)])
    return np.column_stack([lefts, lefts + width * RATIO ** depth]).ravel()


def integrate_ifs(phi, spec: IFSSpec, rtol=RICHARDSON_RTOL, lo=-np.inf, hi=np.inf):
    """\\int_[lo, hi] phi d(mu) against the Cantor probability measure, depth-refined;
    a cylinder that lo or hi cuts weighs its mass inside [lo, hi], from ifs_cdf
    (good to about 1e-10 at a float, too coarse for every cylinder's weight)."""
    prev = None
    depth = 4
    while depth <= MAX_DEPTH:
        xs, ws = support_nodes(spec, depth)
        if not (lo <= spec.a and spec.b <= hi):
            left, right = construction_endpoints(spec, depth).reshape(-1, 2).T
            cut = ((left < lo) & (lo < right)) | ((left < hi) & (hi < right))
            ws = np.where((lo <= left) & (right <= hi), ws, 0.0)
            ws[cut] = np.diff(ifs_cdf(spec, np.clip([left[cut], right[cut]], lo, hi)), axis=0)[0]
        val = float(np.dot(np.asarray(phi(xs), dtype=float), ws))
        if prev is not None and abs(val - prev) <= rtol * max(abs(val), 1.0):
            return val
        prev = val
        depth += 2
    raise IntegrationError("IFS integral did not stabilize (non-Lipschitz test function?)")


BLOCK_DIGITS = 11
BLOCK = 3 ** BLOCK_DIGITS


@lru_cache(maxsize=None)
def _block_table():
    """For each block of BLOCK_DIGITS ternary digits, most significant first: its
    Cantor-function increment in units of the block, and whether it holds a 1."""
    idx = np.arange(BLOCK)
    inc = np.zeros(BLOCK)
    alive = np.ones(BLOCK, dtype=bool)
    for i in range(BLOCK_DIGITS):
        d = idx // 3 ** (BLOCK_DIGITS - 1 - i) % 3
        inc[alive & (d != 0)] += 0.5 ** (i + 1)
        alive &= d != 1
    return inc, ~alive


def _cdf_middle_thirds(x):
    """Cantor function on [0, 1] from 44 ternary digits, BLOCK_DIGITS per lookup.

    A point leaves the loop at the block holding its first digit 1, or once its
    remainder is 0 and every further digit is 0.
    """
    inc, has_one = _block_table()
    x = np.asarray(x, dtype=float)
    out = np.where(x >= 1.0, 1.0, 0.0)
    flat = out.reshape(-1)
    pos = np.flatnonzero((x > 0.0) & (x < 1.0))
    t = x.reshape(-1)[pos]
    scale = 1.0
    for _ in range(4):
        if not pos.size:
            break
        t = BLOCK * t
        d = t.astype(np.intp)    # below BLOCK: 3^11 t rounds below 3^11 for every t < 1
        t -= d
        flat[pos] += scale * inc[d]
        keep = ~has_one[d] & (t != 0.0)
        pos, t = pos[keep], t[keep]
        scale *= 0.5 ** BLOCK_DIGITS
    return out


def ifs_cdf(spec: IFSSpec, x):
    """Cantor function of the base interval: F(x) = mu([a, x])."""
    x = np.asarray(x, dtype=float)
    return _cdf_middle_thirds((x - spec.a) / (spec.b - spec.a))


@dataclass(frozen=True)
class CantorPart:
    """Signed self-similar component of a measure: mass * (IFS probability measure)."""

    spec: IFSSpec
    mass: float = 1.0

    def apply(self, phi, rtol=RICHARDSON_RTOL):
        return self.mass * integrate_ifs(phi, self.spec, rtol=rtol)

    def total_variation(self, weight=None, lo=-np.inf, hi=np.inf):
        """TV of the part on [lo, hi], optionally against an extra density |weight|."""
        if weight is None:
            return abs(self.interval_mass(lo, hi))
        return abs(self.mass) * integrate_ifs(lambda x: np.abs(weight(x)), self.spec,
                                              lo=lo, hi=hi)

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

"""The middle-thirds Cantor measure on a base interval, and its Cantor function.

The measure on [a, b] is the self-similar probability measure of the two maps
x -> a + (x - a)/3 and x -> a + 2(b - a)/3 + (x - a)/3, each of weight 1/2.
In s = F(x), F its Cantor function, a depth-k cylinder (an image of [a, b]
under k maps) is a dyadic s-interval of length 2^-k, its mass: integrate_ifs
refines them in quadrature._refine, each with the measure's Gauss rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import UnsupportedStructureError
from .quadrature import _non_finite, _refine

RATIO = 1.0 / 3.0
# integrate_ifs starts at depth 4: a round of refinement calls f once per row,
# and on the Cantor files a deeper start saved rounds down to depth 4, little
# after.  Its rule is the measure's Gauss rule on [0, 1], exact to degree 7,
# from the moments m_n (1 - 3^-n) = 3^-n / 2 sum_{k<n} C(n, k) 2^(n-k) m_k (Golub-Welsch)
START_DEPTH = 4
_XC = np.array([0.038776470475188896, 0.2681457951725003, 0.7318542048274997, 0.961223529524811])
_WC = np.array([0.22407775610663058, 0.2759222438933694, 0.2759222438933694, 0.22407775610663058])


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


def construction_endpoints(spec: IFSSpec, depth: int):
    """Sorted endpoints of the 2^depth construction intervals at a given depth."""
    width = spec.b - spec.a
    lefts = spec.a + width * _cylinder_left(np.arange(2 ** depth) / 2 ** depth)
    return np.column_stack([lefts, lefts + width * RATIO ** depth]).ravel()


def _cylinder_left(s):
    """F^-1 of the dyadic s in units of the base, one byte of digits a step (a
    binary 1 at 2^-j is a ternary 2 at 3^-j): the left end of the cylinder
    whose s-interval starts at s."""
    byte = (np.arange(256)[:, None] >> np.arange(7, -1, -1) & 1) @ (2.0 * RATIO ** np.arange(1, 9))
    out, t, scale = np.zeros(len(s)), s.copy(), 1.0
    while t.any():
        t *= 256.0
        d = t.astype(np.intp)
        t -= d
        out += scale * byte[d]
        scale *= RATIO ** 8
    return out


def integrate_ifs(f, spec: IFSSpec, windows, cuts, tol_abs, tol_rel):
    """\\int_[lo, hi] f(x, rows) d(mu) for each row r, windows[r] = (lo, hi), rows
    naming the row of each abscissa and f jumping at most at the abscissae
    cuts, in one _refine; returns (totals, error sums).  A part is a cylinder
    as its s-interval, so _refine's halves are its children and its size
    share its mass.  Inside the window its value is the Gauss rule on its
    children, its error their distance from the rule on it.  A part that a
    cut or the window's ends cut weighs each side in the window by its mass
    (from F) times f at its middle, and its error is that mass times the
    spread of f there and at its and its children's nodes in the window.
    Below about 3^-33 of the base, the float spacing of x, no cylinder is
    cut: a cut on the Cantor set is resolved to a mass of about 2^-32."""
    lo, hi = np.array(windows, dtype=float).reshape(-1, 2).T
    a, width = spec.a, spec.b - spec.a
    pad = np.sort(np.column_stack([lo, hi, np.tile(np.reshape(cuts, (1, -1)), (len(lo), 1))]), 1)
    x12 = np.concatenate([_XC, RATIO * _XC, 2.0 * RATIO + RATIO * _XC])   # part, children

    def rule(p, r):
        s0, mass = p[:, 0], p[:, 1] - p[:, 0]
        h = width * RATIO ** (1.0 - np.frexp(mass)[1])             # mass 2^-k, width 3^-k
        x0 = a + width * _cylinder_left(s0)
        x1 = x0 + h
        inside = (x0 < hi[r]) & (x1 > lo[r])
        cut = inside & ((pad[r] > x0[:, None]) & (pad[r] < x1[:, None])).any(axis=1)
        e = np.clip(np.column_stack([x0, pad[r], x1]), np.maximum(x0, lo[r])[:, None],
                    np.minimum(x1, hi[r])[:, None])
        side = np.diff(np.clip(ifs_cdf(spec, e), s0[:, None], p[:, 1:]), axis=1)
        x = np.column_stack([x0[:, None] + h[:, None] * x12, 0.5 * (e[:, :-1] + e[:, 1:])])
        seen = ~cut[:, None] | ((x[:, :12] > e[:, :1]) & (x[:, :12] < e[:, -1:]))
        take = np.column_stack([inside[:, None] & seen, cut[:, None] & (side > 0)])
        fx = np.zeros(x.shape)
        fx[take] = f(x[take], np.broadcast_to(r[:, None], x.shape)[take])
        if not np.all(np.isfinite(fx)):
            raise _non_finite(fx[take], x[take])
        coarse = mass * np.einsum("ij,j->i", fx[:, :4], _WC)
        fine = 0.5 * mass * np.einsum("ij,j->i", fx[:, 4:12], np.tile(_WC, 2))
        spread = np.where(take.any(axis=1), np.where(take, fx, -np.inf).max(axis=1)
                          + np.where(take, -fx, -np.inf).max(axis=1), 0.0)
        return (np.where(cut, np.einsum("ij,ij->i", side, fx[:, 12:]), fine),
                np.where(cut, side.sum(axis=1) * spread, np.abs(coarse - fine)))

    n, k = len(lo), 2 ** START_DEPTH
    return _refine(rule, np.tile(np.column_stack([np.arange(k), np.arange(1, k + 1)]) / k, (n, 1)),
                   np.repeat(np.arange(n), k), np.full(n, float(tol_abs)), tol_rel)


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
    return partial(ifs_cdf, spec)

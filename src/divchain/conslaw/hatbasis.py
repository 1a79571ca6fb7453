"""Piecewise-linear weights and their clipped integrals.

The kinetic-measure assembly needs integrals like \\int w(v) min(v, u) dv,
\\int_{v>u} w(v) dv and \\int_{v<u} w(v) g(v) dv per slab state; they are
taken once per distinct (k, u) state, which for shock runs is a small share
of the slab states.  With hat (and hat-derivative) weights the first two
have closed forms.  The flux-weighted third runs Gauss on each clipped
piece: ceil((d + 2) / 2) points when g is a polynomial of known degree d,
which is exact (two points for the bundled quadratic fluxes), and 12 points
otherwise.
"""

from __future__ import annotations

import numpy as np

from ..quadrature import gauss


class PiecewiseLinearWeight:
    """w(v) = p_j + q_j v on [a_j, b_j] (disjoint, sorted), zero elsewhere."""

    def __init__(self, pieces):
        self.pieces = [(float(a), float(b), float(p), float(q)) for a, b, p, q in pieces]

    def val(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for a, b, p, q in self.pieces:
            m = (x >= a) & (x <= b)
            out = np.where(m, p + q * x, out)
        return out

    def integral(self):
        tot = 0.0
        for a, b, p, q in self.pieces:
            tot += p * (b - a) + 0.5 * q * (b * b - a * a)
        return tot

    def _below(self, y, part):
        """\\int_{-inf}^{y} of the piece integrals part(a, c, p, q) over [a, c].

        A piece wholly below y adds one scalar, part(a, b, p, q); a piece
        wholly above adds nothing; only the states strictly inside (a, b)
        get a per-state part(a, y, p, q).
        """
        y = np.asarray(y, dtype=float)
        flat = y.ravel()
        out = np.zeros_like(flat)
        for a, b, p, q in self.pieces:
            full = flat >= b
            if full.any():
                out[full] += part(a, b, p, q)
            inside = np.flatnonzero((flat > a) & (flat < b))
            if inside.size:
                out[inside] += part(a, flat[inside], p, q)
        return out.reshape(y.shape)

    def cdf(self, y):
        """\\int_{-inf}^{y} w."""
        return self._below(y, lambda a, c, p, q: p * (c - a) + 0.5 * q * (c * c - a * a))

    def moment_cdf(self, y):
        """\\int_{-inf}^{y} w(v) v dv."""
        return self._below(
            y, lambda a, c, p, q: 0.5 * p * (c * c - a * a) + q * (c ** 3 - a ** 3) / 3.0)

    def min_integral(self, u):
        """\\int w(v) min(v, u) dv (exact)."""
        u = np.asarray(u, dtype=float)
        return self.moment_cdf(u) + u * (self.integral() - self.cdf(u))

    def upper_integral(self, u):
        """\\int_{v > u} w(v) dv."""
        return self.integral() - self.cdf(np.asarray(u, dtype=float))

    def weighted_to_upper(self, g, u, degree=None):
        """\\int_{-inf}^{u} w(v) g(v) dv by Gauss on each clipped piece.

        g vectorized.  When g is a polynomial of `degree` d, w g has degree
        d + 1 and ceil((d + 2) / 2) points integrate it exactly; with degree
        None, 12 points.
        """
        x, wts = gauss(12 if degree is None else (degree + 3) // 2)

        def part(a, c, p, q):
            half, mid = 0.5 * (c - a), 0.5 * (c + a)
            vs = [mid + half * xi for xi in x]
            return half * sum(wi * (p + q * v) * np.asarray(g(v), dtype=float)
                              for v, wi in zip(vs, wts))

        return self._below(u, part)


def hat(l, m, r):
    pieces = []
    if m > l:
        pieces.append((l, m, -l / (m - l), 1.0 / (m - l)))
    if r > m:
        pieces.append((m, r, r / (r - m), -1.0 / (r - m)))
    return PiecewiseLinearWeight(pieces)


def hat_derivative(l, m, r):
    pieces = []
    if m > l:
        pieces.append((l, m, 1.0 / (m - l), 0.0))
    if r > m:
        pieces.append((m, r, -1.0 / (r - m), 0.0))
    return PiecewiseLinearWeight(pieces)


class HatBasis:
    """Interior hats on a uniform node set (boundary nodes excluded)."""

    def __init__(self, lo, hi, n_hats):
        self.nodes = np.linspace(lo, hi, n_hats + 2)
        self.hats = [hat(self.nodes[j - 1], self.nodes[j], self.nodes[j + 1])
                     for j in range(1, n_hats + 1)]
        self.centers = self.nodes[1:-1]

    def __len__(self):
        return len(self.hats)

    def vals(self, x):
        return np.stack([h.val(x) for h in self.hats])

    def seg_integrals(self, edges):
        """(nhat, nseg) exact integrals over consecutive [edges_k, edges_{k+1}]."""
        cdfs = np.stack([h.cdf(edges) for h in self.hats])
        return cdfs[:, 1:] - cdfs[:, :-1]

    def point_diffs(self, edges):
        """(nhat, nseg) hat(e_{k+1}) - hat(e_k)."""
        v = self.vals(edges)
        return v[:, 1:] - v[:, :-1]

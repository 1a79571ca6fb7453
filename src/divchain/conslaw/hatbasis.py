"""Families of piecewise-linear weights and their clipped integrals.

The kinetic-measure assembly needs \\int w(v) min(v, u) dv, \\int_{v>u} w(v) dv
and \\int_{v<u} w(v) g(v) dv for every hat w of a basis and every distinct
(k, u) slab state; a family holds the hats as rows, so each is one call.  The
first two have closed forms.  The third runs Gauss on each clipped piece:
ceil((d + 2) / 2) points when g is a polynomial of known degree d, which is
exact (two for the bundled quadratic fluxes), and 12 points otherwise.
"""

from __future__ import annotations

import numpy as np

from ..quadrature import gauss


def _cube(v):
    """v ** 3 by Python's float pow, as a weight-by-weight evaluation takes the
    piece ends' cubes: numpy's vectorized pow can differ in the last bit."""
    return (v.astype(object) ** 3).astype(float)


def _piece_integral(a, c, p, q):
    """\\int_a^c (p + q v) dv."""
    return p * (c - a) + 0.5 * q * (c * c - a * a)


class PiecewiseLinearWeight:
    """Weights w_i(v) = p_ij + q_ij v on [a_ij, b_ij] (disjoint, sorted in j),
    zero elsewhere, from arrays of shape (n_weights, n_pieces).  Every method
    returns one row per weight: shape (n_weights,) + its argument's shape."""

    def __init__(self, a, b, p, q):
        self.a, self.b, self.p, self.q = a, b, p, q

    def val(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(self.a.shape[:1] + x.shape)
        shape = (-1,) + (1,) * x.ndim
        for j in range(self.a.shape[1]):
            a, b, p, q = (v[:, j].reshape(shape) for v in (self.a, self.b, self.p, self.q))
            out = np.where((x >= a) & (x <= b), p + q * x, out)
        return out

    def _clipped(self, f):
        """_below's (whole, part) for the piece integral f(a, c, p, q) over [a, c]."""
        a, p, q = self.a, self.p, self.q
        return f(a, self.b, p, q), lambda r, j, c: f(a[r, j], c, p[r, j], q[r, j])

    def integral(self):
        return sum(_piece_integral(self.a, self.b, self.p, self.q).T)

    def _below(self, y, whole, part):
        """Per row, \\int_{-inf}^{y} as a sum over pieces: a piece wholly below y
        adds whole[:, j], one wholly above nothing, and only the (row, state)
        pairs with y inside (a, b) get part(rows, j, y), over [a, y]."""
        y = np.asarray(y, dtype=float)
        flat = y.ravel()
        out = np.zeros((len(self.a), flat.size))
        for j in range(self.a.shape[1]):
            a, b = self.a[:, j, None], self.b[:, j, None]
            np.add(out, whole[:, j, None], out=out, where=flat >= b)
            rows, at = np.nonzero((flat > a) & (flat < b))
            if rows.size:
                out[rows, at] += part(rows, j, flat[at])
        return out.reshape(out.shape[:1] + y.shape)

    def cdf(self, y):
        """\\int_{-inf}^{y} w."""
        return self._below(y, *self._clipped(_piece_integral))

    def moment_cdf(self, y):
        """\\int_{-inf}^{y} w(v) v dv."""
        f = lambda a, c, a3, c3, p, q: 0.5 * p * (c * c - a * a) + q * (c3 - a3) / 3.0
        a, b, p, q = self.a, self.b, self.p, self.q
        a3 = _cube(a)
        return self._below(y, f(a, b, a3, _cube(b), p, q),
                           lambda r, j, c: f(a[r, j], c, a3[r, j], c ** 3, p[r, j], q[r, j]))

    def min_integral(self, u):
        """\\int w(v) min(v, u) dv (exact)."""
        u = np.asarray(u, dtype=float)
        return self.moment_cdf(u) + u * self.upper_integral(u)

    def upper_integral(self, u):
        """\\int_{v > u} w(v) dv."""
        u = np.asarray(u, dtype=float)
        return self.integral().reshape((-1,) + (1,) * u.ndim) - self.cdf(u)

    def weighted_to_upper(self, g, u, degree=None):
        """\\int_{-inf}^{u} w(v) g(v) dv by Gauss on each clipped piece.

        g vectorized.  When g is a polynomial of `degree` d, w g has degree
        d + 1 and ceil((d + 2) / 2) points integrate it exactly; with degree
        None, 12 points.
        """
        x, wts = gauss(12 if degree is None else (degree + 3) // 2)

        def f(a, c, p, q):
            half, mid = 0.5 * (c - a), 0.5 * (c + a)
            vs = [mid + half * xi for xi in x]
            return half * sum(wi * (p + q * v) * np.asarray(g(v), dtype=float)
                              for v, wi in zip(vs, wts))

        return self._below(u, *self._clipped(f))


class HatBasis:
    """Interior hats on a uniform node set (boundary nodes excluded), and
    their derivatives: two weight families with one row per hat."""

    def __init__(self, lo, hi, n_hats):
        self.nodes = np.linspace(lo, hi, n_hats + 2)
        l, m, r = self.nodes[:-2], self.nodes[1:-1], self.nodes[2:]
        a, b = np.stack([l, m], axis=1), np.stack([m, r], axis=1)
        slopes = np.stack([1.0 / (m - l), -1.0 / (r - m)], axis=1)
        self.hats = PiecewiseLinearWeight(
            a, b, np.stack([-l / (m - l), r / (r - m)], axis=1), slopes)
        self.derivatives = PiecewiseLinearWeight(a, b, slopes, np.zeros_like(a))

    def seg_integrals(self, edges):
        """(nhat, nseg) exact integrals over consecutive [edges_k, edges_{k+1}]."""
        cdfs = self.hats.cdf(edges)
        return cdfs[:, 1:] - cdfs[:, :-1]

    def point_diffs(self, edges):
        """(nhat, nseg) hat(e_{k+1}) - hat(e_k)."""
        v = self.hats.val(edges)
        return v[:, 1:] - v[:, :-1]

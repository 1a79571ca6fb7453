"""Discontinuous flux specifications B(x, u) = Ahat(k(x), u) and entropy pairs.

The coefficient k is a piecewise BV function.  The solver and the kinetic
diagnostics evaluate Ahat and its derivative b(x, u) = d/du Ahat(k(x), u)
at the coefficient value of each cell or slab, so the flux jumps only on J_k.
"""

from __future__ import annotations

import numpy as np

from ..bvfunc import BVFunction
from ..errors import ScenarioValidationError
from ..quadrature import integrate_to_upper


def chi(v, u):
    """Kinetic indicator: 1 if v < u, 1/2 if v = u, 0 if v > u."""
    v_arr = np.asarray(v, dtype=float)
    u_arr = np.asarray(u, dtype=float)
    out = np.where(v_arr < u_arr, 1.0, np.where(v_arr == u_arr, 0.5, 0.0))
    if np.isscalar(v) and np.isscalar(u):
        return float(out)
    return out


SPEED_TOL = 1e-2      # dahat_du against the difference quotients of ahat, relative


class FluxSpec:
    """Composite flux Ahat(k(x), u) and its derivative in u.

    Ahat, dAhat_du: vectorized in (k, u).  critical(k) lists the interior
    critical points of u -> Ahat(k, u) on the invariant region; the Godunov
    flux takes its extrema over the Riemann interval from these and the
    interval's ends, so any flux works as long as its critical points are
    declared.  ahat_degree and speed_degree are the polynomial degrees in u
    of Ahat and dAhat_du, or None when either is not a polynomial in u;
    the quadratures in u take their Gauss order from them.
    """

    def __init__(self, k: BVFunction, ahat, dahat_du, u_range, critical=None,
                 ahat_degree=None, speed_degree=None, lines=(None, None)):
        self.k = k
        self.ahat = ahat
        self.dahat_du = dahat_du
        self.ahat_degree = ahat_degree
        self.speed_degree = speed_degree
        self.u_range = (float(u_range[0]), float(u_range[1]))
        self.critical = critical or (lambda kv: ())
        self.M = self._probe(lines)

    def _probe(self, lines):
        """Check Ahat and dAhat_du on the probe grid and return sup |dAhat_du|.

        The grid is the coefficient values at 33 points off J_k times 101
        points of u_range; `lines` are the scenario lines of ahat and dahat_du,
        named in the errors.  A dAhat_du that is not the u-derivative of Ahat
        is not raised here but kept in speed_mismatch, for the loader to raise
        after its checks of the march.
        """
        pts = self.k.domain.grid(33)
        ks = self.k.eval(pts[~self.k.on_jump(pts, tol=1e-9)])[:, None]
        us = np.linspace(*self.u_range, 101)
        with np.errstate(all="ignore"):
            z = np.asarray(self.ahat(ks, 0.0), dtype=float)
            grids = [np.broadcast_to(np.asarray(f(ks, us), dtype=float), (len(ks), us.size))
                     for f in (self.ahat, self.dahat_du)]
        where = [f"line {ln}: " if ln is not None else "" for ln in lines]
        for name, at, vals in zip(("ahat", "dahat_du"), where, grids):
            if not np.all(np.isfinite(vals)):
                i, j = np.argwhere(~np.isfinite(vals))[0]
                raise ScenarioValidationError(f"{at}{name} is not finite at "
                                              f"k = {ks[i, 0]:g}, u = {us[j]:g}")
        if not np.all(np.abs(z) <= 1e-12):
            raise ScenarioValidationError(f"{where[0]}flux must vanish at u = 0 "
                                          f"(normalize Ahat)")
        # each difference quotient of Ahat between neighbouring probe u lies
        # between the speeds at its ends, to SPEED_TOL of the largest of them all
        a, d = grids
        with np.errstate(all="ignore"):
            dq = np.diff(a, axis=1) / np.diff(us)
        lo, hi = np.minimum(d[:, :-1], d[:, 1:]), np.maximum(d[:, :-1], d[:, 1:])
        bad = np.argwhere(np.maximum(lo - dq, dq - hi)
                          > SPEED_TOL * max(np.max(np.abs(d)), np.max(np.abs(dq))))
        self.speed_mismatch = None
        if len(bad):
            i, j = bad[0]
            self.speed_mismatch = (
                f"{where[1]}dahat_du is not the u-derivative of ahat: at k = {ks[i, 0]:g}, "
                f"ahat rises by {dq[i, j]:g} per unit u from u = {us[j]:g} to {us[j + 1]:g}, "
                f"where dahat_du is {d[i, j]:g} and {d[i, j + 1]:g}")
        return float(np.max(np.abs(d)))

    def flux_at(self, kv, u):
        return np.asarray(self.ahat(np.asarray(kv, dtype=float), u), dtype=float)

    def ahat_into(self, kv, shape):
        """u -> Ahat(kv, u) for u of one shape, in buffers made once (Expr.into);
        a plain Python callable, as tests build, is called and copied in."""
        kv = np.asarray(kv, dtype=float)
        if hasattr(self.ahat, "expr"):
            ev = self.ahat.expr.into({"k": kv.shape, "u": shape})
            return lambda u: ev({"k": kv, "u": u})
        out = np.empty(np.broadcast_shapes(kv.shape, shape))
        return lambda u: np.copyto(out, self.flux_at(kv, u)) or out

    def speed_at(self, kv, u):
        return np.asarray(self.dahat_du(np.asarray(kv, dtype=float), u), dtype=float)


class EntropyPair:
    """Convex entropy S with flux eta_i(x, v) = \\int_0^v b_i(x, w) S'(w) dw.

    dS_degree: the polynomial degree of S', or None when it is not a
    polynomial.
    """

    def __init__(self, S, dS, d2S=None, dS_degree=None):
        self.S = S
        self.dS = dS
        self.d2S = d2S
        self.dS_degree = dS_degree

    def check_convex(self, u_range):
        us = np.linspace(*u_range, 101)
        if self.d2S is not None:
            return bool(np.all(np.asarray(self.d2S(us)) >= -1e-12))
        d2 = np.diff(np.asarray(self.dS(us)))
        return bool(np.all(d2 >= -1e-12))

    def eta_of_k(self, flux: FluxSpec, kv, v):
        """eta(x, v) for constant coefficient kv, vectorized over v.

        Exact when dAhat_du and S' are polynomials of declared degree: one
        Gauss order runs for the degree of their product."""
        v_arr = np.atleast_1d(np.asarray(v, dtype=float))

        def g(w):
            return np.asarray(flux.dahat_du(kv, w), dtype=float) * np.asarray(self.dS(w))

        degs = (flux.speed_degree, self.dS_degree)
        out = integrate_to_upper(g, v_arr, degree=None if None in degs else sum(degs))
        return out if not np.isscalar(v) else float(out[0])

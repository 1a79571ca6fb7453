"""Discontinuous flux specifications B(x, u) = Ahat(k(x), u) and entropy pairs.

The coefficient k is a piecewise BV function; the composite flux derivative
b(x, u) = d/du Ahat(k(x), u) is exposed as a ParamField whose singular set
is J_k, which is what the chain-rule and kinetic machinery consume.
"""

from __future__ import annotations

import numpy as np

from ..bvfunc import BVFunction
from ..errors import ScenarioValidationError
from ..field import ParamField
from ..quadrature import integrate_to_upper


def chi(v, u):
    """Kinetic indicator: 1 if v < u, 1/2 if v = u, 0 if v > u."""
    v_arr = np.asarray(v, dtype=float)
    u_arr = np.asarray(u, dtype=float)
    out = np.where(v_arr < u_arr, 1.0, np.where(v_arr == u_arr, 0.5, 0.0))
    if np.isscalar(v) and np.isscalar(u):
        return float(out)
    return out


class FluxSpec:
    """Composite flux Ahat(k(x), u) with derived flux-derivative field.

    Ahat, dAhat_du: vectorized in (k, u).  critical(k) lists the interior
    critical points of u -> Ahat(k, u) on the invariant region; the Godunov
    flux takes its extrema over the Riemann interval from these and the
    interval's ends, so any flux works as long as its critical points are
    declared.
    """

    def __init__(self, k: BVFunction, ahat, dahat_du, u_range, critical=None, name="flux"):
        self.k = k
        self.ahat = ahat
        self.dahat_du = dahat_du
        self.u_range = (float(u_range[0]), float(u_range[1]))
        self.critical = critical or (lambda kv: ())
        self.name = name
        z = self.ahat(self._k_probe(), 0.0)
        if np.max(np.abs(z)) > 1e-12:
            raise ScenarioValidationError("flux must vanish at u = 0 (normalize Ahat)")
        self.M = self._sup_speed()

    def _k_probe(self):
        pts = self.k.domain.grid(33)
        off = ~self.k.on_jump(pts, tol=1e-9)
        return self.k.eval(pts[off])

    def _sup_speed(self):
        ks = self._k_probe()
        us = np.linspace(*self.u_range, 101)
        worst = 0.0
        for u in us:
            worst = max(worst, float(np.max(np.abs(self.dahat_du(ks, u)))))
        return worst

    def flux_at(self, kv, u):
        return np.asarray(self.ahat(np.asarray(kv, dtype=float), u), dtype=float)

    def speed_at(self, kv, u):
        return np.asarray(self.dahat_du(np.asarray(kv, dtype=float), u), dtype=float)

    def field(self) -> ParamField:
        """b(x, t) = dAhat/du(k(x), t) as a ParamField with N = J_k."""
        k = self.k

        def eval_fn(pts, t):
            return np.asarray(self.dahat_du(k.eval(pts), t), dtype=float)[:, None]

        b_plus = b_minus = None
        if not k.jump_set.is_empty:
            def b_plus(pts, t):
                return np.asarray(self.dahat_du(np.asarray(k.u_plus(pts), dtype=float), t),
                                  dtype=float)[:, None]

            def b_minus(pts, t):
                return np.asarray(self.dahat_du(np.asarray(k.u_minus(pts), dtype=float), t),
                                  dtype=float)[:, None]

        def diva(pts, t):
            # d/dx [dAhat/du(k(x), t)] on smooth pieces; zero for piecewise
            # constant k, finite-difference in k otherwise
            kv = k.eval(pts)
            dk = k.grad(pts)[:, 0]
            h = 1e-6
            dd = (np.asarray(self.dahat_du(kv + h, t)) - np.asarray(self.dahat_du(kv - h, t))) / (2 * h)
            return dd * dk

        lo, hi = self.u_range
        pad = 0.5 * (hi - lo) + 1.0
        return ParamField(k.domain, eval_fn, sup_bound=self.M, singular_set=k.jump_set,
                          b_plus=b_plus, b_minus=b_minus, diva=diva,
                          t_range=(lo - pad, hi + pad))


class EntropyPair:
    """Convex entropy S with flux eta_i(x, v) = \\int_0^v b_i(x, w) S'(w) dw."""

    def __init__(self, S, dS, d2S=None, name="entropy"):
        self.S = S
        self.dS = dS
        self.d2S = d2S
        self.name = name

    def check_convex(self, u_range, n=101):
        us = np.linspace(*u_range, n)
        if self.d2S is not None:
            return bool(np.all(np.asarray(self.d2S(us)) >= -1e-12))
        d2 = np.diff(np.asarray(self.dS(us)))
        return bool(np.all(d2 >= -1e-12))

    def eta_of_k(self, flux: FluxSpec, kv, v):
        """eta(x, v) for constant coefficient kv, vectorized over v."""
        v_arr = np.atleast_1d(np.asarray(v, dtype=float))

        def g(w):
            return np.asarray(flux.dahat_du(kv, w), dtype=float) * np.asarray(self.dS(w))

        out = integrate_to_upper(g, v_arr)
        return out if not np.isscalar(v) else float(out[0])

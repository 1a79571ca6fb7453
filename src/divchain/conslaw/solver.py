"""Explicit Godunov finite-volume solver for u_t + d/dx Ahat(k(x), u) = 0.

First-order monotone scheme on a uniform 1D mesh with zero-gradient ghost
cells.  Coefficient jumps must sit on cell faces; those faces couple the
two one-sided fluxes through the demand/supply form of the Godunov flux,
which selects the admissible interface state.  One vectorized numpy sweep
serves every flux: it needs only Ahat and its declared critical points.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import GeometryError, ScenarioValidationError
from ..geometry import Domain
from ..quadrature import gauss
from .flux import FluxSpec


class GridState:
    """Cell averages on a uniform mesh with time/CFL metadata."""

    def __init__(self, domain: Domain, averages, time=0.0, cfl=0.45):
        if domain.dim != 1:
            raise GeometryError("the conservation-law harness is 1D")
        self.domain = domain
        self.averages = np.asarray(averages, dtype=float)
        self.n = len(self.averages)
        lo, hi = domain.bounds[0]
        self.dx = (hi - lo) / self.n
        self.edges = np.linspace(lo, hi, self.n + 1)
        self.centers = 0.5 * (self.edges[:-1] + self.edges[1:])
        self.time = float(time)
        self.cfl = float(cfl)

    @staticmethod
    def from_function(domain, ncells, fn, cfl=0.45, cell_average=True):
        lo, hi = domain.bounds[0]
        edges = np.linspace(lo, hi, ncells + 1)
        if cell_average:
            # 4-point Gauss per cell
            gx, gw = gauss(4)
            mid = 0.5 * (edges[:-1] + edges[1:])
            half = 0.5 * (edges[1:] - edges[:-1])
            vals = np.zeros(ncells)
            for x, w in zip(gx, gw):
                vals += 0.5 * w * np.asarray(fn(mid + half * x), dtype=float)
            return GridState(domain, vals, cfl=cfl)
        mid = 0.5 * (edges[:-1] + edges[1:])
        return GridState(domain, np.asarray(fn(mid), dtype=float), cfl=cfl)


class Trajectory:
    """Immutable record of a solver run: all states, mesh and flux metadata."""

    def __init__(self, flux: FluxSpec, grid: GridState, times, states, kvals):
        self.flux = flux
        self.domain = grid.domain
        self.dx = grid.dx
        self.edges = grid.edges
        self.centers = grid.centers
        self.cfl = grid.cfl
        self.times = times
        self.states = states
        self.kvals = kvals

    @property
    def dt(self):
        return self.times[1] - self.times[0] if len(self.times) > 1 else 0.0

    def final(self):
        return GridState(self.domain, self.states[-1], time=self.times[-1], cfl=self.cfl)

    def interfaces(self):
        """Indices of faces where the coefficient jumps (1..n-1)."""
        out = []
        for i in range(1, len(self.kvals)):
            if abs(self.kvals[i] - self.kvals[i - 1]) > 1e-12:
                out.append(i)
        return out

    def interface_traces(self, face_index):
        """(u-, u+) time series next to an interior face."""
        return self.states[:, face_index - 1], self.states[:, face_index]

    def discrete_tv(self):
        return float(np.max(np.sum(np.abs(np.diff(self.states, axis=1)), axis=1)))


def _coefficients(flux: FluxSpec, grid: GridState):
    kvals = flux.k.eval(grid.centers[:, None])
    # coefficient jumps must sit on faces
    for xj in flux.k.jump_set.points_1d:
        d = np.min(np.abs(grid.edges - xj))
        if d > 1e-9 * max(1.0, abs(xj)) + 1e-12:
            raise GeometryError(
                f"coefficient jump at {xj} does not sit on a cell face (nearest {d:.2e})")
    return kvals


def _validate_interface_fluxes(flux: FluxSpec, kvals, n_checks=101):
    """Interface coupling assumes concave-unimodal or monotone fluxes."""
    lo, hi = flux.u_range
    us = np.linspace(lo, hi, n_checks)
    for kv in np.unique(kvals.round(12)):
        f = flux.flux_at(kv, us)
        d = np.diff(f)
        sign_changes = int(np.sum(np.abs(np.diff(np.sign(d[np.abs(d) > 1e-13])))) / 2)
        if sign_changes > 1:
            raise ScenarioValidationError(
                "interface coupling requires monotone or single-hump fluxes per side")
        if sign_changes == 1 and not (d[np.abs(d) > 1e-13][0] > 0):
            raise ScenarioValidationError(
                "interface coupling requires concave (single-max) fluxes")


def fv_solve(flux: FluxSpec, u0: GridState, T, cfl=None) -> Trajectory:
    """March to time T with Godunov fluxes; dt = cfl dx / max |speed|."""
    cfl = float(cfl if cfl is not None else u0.cfl)
    if not (0.0 < cfl < 1.0):
        raise ScenarioValidationError("cfl must be in (0, 1)")
    lo, hi = flux.u_range
    if np.min(u0.averages) < lo - 1e-12 or np.max(u0.averages) > hi + 1e-12:
        raise ScenarioValidationError("initial data outside the invariant region")
    kvals = _coefficients(flux, u0)
    if len(np.unique(kvals.round(12))) > 1:
        _validate_interface_fluxes(flux, kvals)
    speed = max(flux.M, 1e-12)
    nsteps = max(1, math.ceil(float(T) * speed / (cfl * u0.dx)))
    dt = float(T) / nsteps

    states = _sweep(face_fluxes(flux, kvals), u0.averages, dt / u0.dx, nsteps)
    if not np.all(np.isfinite(states)):
        raise ScenarioValidationError("solver produced non-finite values")
    times = u0.time + dt * np.arange(nsteps + 1)
    return Trajectory(flux, u0, times, states, kvals)


def face_fluxes(flux: FluxSpec, kvals):
    """Godunov fluxes on the n+1 faces of n cells with coefficients kvals.

    Returns F(u), the face fluxes for cell averages u (zero-gradient ghost
    cells).  Faces inside one coefficient piece take the classical Godunov
    min/max of the flux over the Riemann interval, using the declared
    critical points; faces where k jumps take the demand/supply coupling
    min(D_left(uL), S_right(uR)), evaluated on those faces only.  Flux values
    that do not depend on u (at the ends of u_range and at the critical
    points) are computed here, once.
    """
    lo, hi = flux.u_range
    kL = np.concatenate([kvals[:1], kvals])
    kR = np.concatenate([kvals, kvals[-1:]])
    same = np.abs(kL - kR) <= 1e-12
    jump = np.flatnonzero(~same)
    critL, fcritL = _critical_table(flux, kL)
    # demand/supply data on the faces where k jumps only
    kRj = kR[jump]
    critLj = critL[:, jump]
    fcritLj = [fc[jump] for fc in fcritL]
    critRj, fcritRj = _critical_table(flux, kRj)
    f_at_lo = flux.flux_at(kL[jump], lo)
    f_at_hi = flux.flux_at(kRj, hi)

    def F(u):
        uL = np.concatenate([u[:1], u])
        uR = np.concatenate([u, u[-1:]])
        flo = np.minimum(uL, uR)
        fhi = np.maximum(uL, uR)
        fl = flux.flux_at(kL, uL)
        fr = flux.flux_at(kL, uR)
        fmin = np.minimum(fl, fr)
        fmax = np.maximum(fl, fr)
        for c, fc in zip(critL, fcritL):
            ok = (c > flo) & (c < fhi)
            fmin = np.where(ok, np.minimum(fmin, fc), fmin)
            fmax = np.where(ok, np.maximum(fmax, fc), fmax)
        out = np.where(uL <= uR, fmin, fmax)
        if len(jump):
            uLj, uRj = uL[jump], uR[jump]
            D = np.maximum(fl[jump], f_at_lo)
            for c, fc in zip(critLj, fcritLj):
                D = np.where((c > lo) & (c < uLj), np.maximum(D, fc), D)
            S = np.maximum(flux.flux_at(kRj, uRj), f_at_hi)
            for c, fc in zip(critRj, fcritRj):
                S = np.where((c > uRj) & (c < hi), np.maximum(S, fc), S)
            out[jump] = np.minimum(D, S)
        return out

    return F


def _critical_table(flux: FluxSpec, kv):
    """Critical points of each face's flux as rows (NaN-padded where a face
    has fewer), and the flux at them (at lo for the padding, unused)."""
    crit = [tuple(flux.critical(k)) for k in kv]
    table = np.full((max([len(c) for c in crit] + [0]), len(kv)), np.nan)
    for i, c in enumerate(crit):
        table[:len(c), i] = c
    lo = flux.u_range[0]
    return table, [flux.flux_at(kv, np.where(np.isnan(c), lo, c)) for c in table]


def _sweep(F, u0, lam, nsteps):
    """nsteps explicit steps u <- u - lam (F_{i+1/2} - F_{i-1/2}).

    Returns the full trajectory, shape (nsteps + 1, ncells).
    """
    u = np.array(u0, dtype=float)
    out = np.empty((nsteps + 1, len(u)))
    out[0] = u
    for n in range(nsteps):
        Fu = F(u)
        u = u - lam * (Fu[1:] - Fu[:-1])
        out[n + 1] = u
    return out

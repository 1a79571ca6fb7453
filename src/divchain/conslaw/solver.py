"""Explicit Godunov finite-volume solver for u_t + d/dx Ahat(k(x), u) = 0.

First-order monotone scheme on a uniform 1D mesh with zero-gradient ghost
cells.  Coefficient jumps must sit on cell faces; those faces couple the
two one-sided fluxes through the demand/supply form of the Godunov flux,
which selects the admissible interface state.  One vectorized numpy sweep
serves every flux: it needs only Ahat and its declared critical points.
The sweep marches any number of initial data on one mesh at once (fv_solve
one, the Kato experiment every datum of every pair), one row each of a
buffer padded with the ghost cells and updated in place.  Every operation
acts on each row on its own, so a row's states do not depend on the others.
It evaluates Ahat once per cell and step, and keeps the states of the cells
it is given.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..errors import GeometryError, ScenarioValidationError
from ..geometry import Domain
from ..quadrature import gauss
from .flux import FluxSpec

DEFAULT_CFL = 0.45      # of every [kato] run, and of a [conslaw] run without cfl

# The most cell states, rows x (nsteps + 1) x ncells, one march may compute per
# datum or data pair (rows 1 or 2), and fv_solve keep: 2 GB.  The Kato sweep
# marches 2 x pairs rows of ncells + 2 floats at once and keeps the interface
# cells only, so the cap bounds its work per pair, not its memory: refine's
# largest mesh, dx = 1/1600, computes 2 x 890 x 3200 = 5.7e6 states per pair.
MAX_TRAJECTORY_FLOATS = 2.5e8


class GridState:
    """Cell averages on a uniform mesh with CFL metadata."""

    def __init__(self, domain: Domain, averages, cfl=DEFAULT_CFL):
        if domain.dim != 1:
            raise GeometryError("the conservation-law harness is 1D")
        self.domain = domain
        self.averages = np.asarray(averages, dtype=float)
        self.n = len(self.averages)
        lo, hi = domain.bounds[0]
        self.dx = (hi - lo) / self.n
        self.edges = np.linspace(lo, hi, self.n + 1)
        self.centers = 0.5 * (self.edges[:-1] + self.edges[1:])
        self.cfl = float(cfl)

    @staticmethod
    def from_function(domain, ncells, fn, cfl=DEFAULT_CFL):
        """The cell averages of fn, by 4-point Gauss per cell."""
        return GridState(domain, cell_averages(domain, ncells, fn), cfl=cfl)


def cell_averages(domain: Domain, ncells, fn):
    """The averages of fn over the ncells cells of the domain, by 4-point
    Gauss per cell."""
    lo, hi = domain.bounds[0]
    edges = np.linspace(lo, hi, ncells + 1)
    gx, gw = gauss(4)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    vals = np.zeros(ncells)
    for x, w in zip(gx, gw):
        vals += 0.5 * w * np.asarray(fn(mid + half * x), dtype=float)
    return vals


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

    def interfaces(self):
        """Indices of faces where the coefficient jumps (1..n-1)."""
        return interface_faces(self.kvals)

    def discrete_tv(self):
        return float(np.max(np.sum(np.abs(np.diff(self.states, axis=1)), axis=1)))

    @cached_property
    def slab_states(self):
        """The distinct slab states u_i^n (n < nsteps) per coefficient value:
        (inv, [(k, sorted states of the cells with coefficient k)]), where
        inv[n, i] indexes u_i^n in the concatenation of those state arrays."""
        slabs = self.states[:-1]
        inv = np.empty(slabs.shape, dtype=np.intp)
        per_k = []
        start = 0
        for kv in np.unique(self.kvals.round(12)):
            cols = np.flatnonzero(np.abs(self.kvals - kv) <= 1e-12)
            u, j = np.unique(slabs[:, cols].ravel(), return_inverse=True)
            inv[:, cols] = start + j.reshape(slabs.shape[0], len(cols))
            per_k.append((kv, u))
            start += len(u)
        return inv, per_k


def _coefficients(flux: FluxSpec, grid: GridState):
    kvals = flux.k.eval(grid.centers[:, None])
    # coefficient jumps must sit on faces
    for xj in flux.k.jump_set.points_1d:
        d = np.min(np.abs(grid.edges - xj))
        if d > 1e-9 * max(1.0, abs(xj)) + 1e-12:
            raise GeometryError(
                f"coefficient jump at {xj} does not sit on a cell face (nearest {d:.2e})")
    return kvals


def _validate_interface_fluxes(flux: FluxSpec, kvals):
    """Interface coupling assumes concave-unimodal or monotone fluxes."""
    lo, hi = flux.u_range
    us = np.linspace(lo, hi, 101)
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


def step_count(flux: FluxSpec, T, dx, cfl):
    """The steps of a march to time T on a dx mesh, ceil(T max(M, 1e-12) /
    (cfl dx)) and at least 1: a float, inf where the quotient overflows."""
    with np.errstate(over="ignore", divide="ignore"):
        return max(1.0, float(np.ceil(float(T) * max(flux.M, 1e-12) / np.float64(cfl * dx))))


def in_invariant_region(flux: FluxSpec, averages):
    """Whether every cell average is a number within flux.u_range, to 1e-12."""
    lo, hi = flux.u_range
    return bool(np.min(averages) >= lo - 1e-12 and np.max(averages) <= hi + 1e-12)


def fv_solve(flux: FluxSpec, u0: GridState, T) -> Trajectory:
    """March to time T with Godunov fluxes; dt = cfl dx / max |speed|."""
    kvals, times, states, _ = _solve(flux, u0, [u0.averages], T, lambda kvals: slice(None))
    return Trajectory(flux, u0, times, states[0], kvals)


def interface_faces(kvals):
    """Indices of faces where the coefficient jumps (1..n-1)."""
    return (np.flatnonzero(np.abs(np.diff(kvals)) > 1e-12) + 1).tolist()


def _solve(flux: FluxSpec, mesh: GridState, data, T, record):
    """March several initial data on one mesh from time 0 to T in one sweep.

    data holds the cell averages of each datum on mesh's cells; the march
    runs at mesh's CFL number, and record(kvals) gives the cells (an index or
    slice) whose states are kept at every level.  Returns kvals, the time
    levels, those states (one row per datum) and the final states.
    """
    if not (0.0 < mesh.cfl < 1.0):
        raise ScenarioValidationError("cfl must be in (0, 1)")
    if not all(in_invariant_region(flux, u) for u in data):
        raise ScenarioValidationError("initial data outside the invariant region")
    kvals = _coefficients(flux, mesh)
    if len(np.unique(kvals.round(12))) > 1:
        _validate_interface_fluxes(flux, kvals)
    nsteps = int(step_count(flux, T, mesh.dx, mesh.cfl))
    dt = float(T) / nsteps

    states, final = _sweep(face_fluxes(flux, kvals), data, dt / mesh.dx, nsteps, record(kvals))
    # a cell that turns non-finite stays so, and so reaches the final states
    if not (np.all(np.isfinite(states)) and np.all(np.isfinite(final))):
        raise ScenarioValidationError("solver produced non-finite values")
    times = dt * np.arange(nsteps + 1)
    return kvals, times, states, final


def face_fluxes(flux: FluxSpec, kvals):
    """Godunov fluxes on the n+1 faces of n cells with coefficients kvals.

    Returns F(u), the face fluxes for padded cell averages u of shape
    (..., n + 2), one row per initial datum, whose first and last columns
    are the ghost cells.  Ahat is evaluated once per padded cell, at
    (k_i, u_i); a face takes its one-sided values from its two cells, and
    only faces whose coefficients differ in the last bits without jumping
    evaluate Ahat(k_left, u_right) anew.  Faces inside one coefficient
    piece take the classical Godunov min/max of the flux over the Riemann
    interval, using the declared critical points; faces where k jumps take
    the demand/supply coupling min(D_left(uL), S_right(uR)), evaluated on
    those faces only.  Flux values that do not depend on u (at the ends of
    u_range and at the critical points) are computed here, once.
    """
    lo, hi = flux.u_range
    kpad = np.concatenate([kvals[:1], kvals, kvals[-1:]])
    kL, kR = kpad[:-1], kpad[1:]
    same = np.abs(kL - kR) <= 1e-12
    jump = np.flatnonzero(~same)
    near = np.flatnonzero(same & (kL != kR))
    critL, fcritL = _critical_table(flux, kL)
    # demand/supply data on the faces where k jumps only
    critLj = critL[:, jump]
    fcritLj = [fc[jump] for fc in fcritL]
    critRj, fcritRj = _critical_table(flux, kR[jump])
    f_at_lo = flux.flux_at(kL[jump], lo)
    f_at_hi = flux.flux_at(kR[jump], hi)
    tiles = {}      # leading shape of u -> the face data as views of that shape

    def F(u):
        rows = u.shape[:-1]
        if rows not in tiles:
            t = lambda arrays: [np.broadcast_to(a, rows + a.shape) for a in arrays]
            tiles[rows] = (t([kpad, kL[near], f_at_lo, f_at_hi]), t(critL), t(fcritL),
                           t(critLj), t(fcritLj), t(critRj), t(fcritRj))
        (kv, k_near, f_lo, f_hi), cL, fcL, cLj, fcLj, cRj, fcRj = tiles[rows]
        fc = flux.flux_at(kv, u)
        uL, uR = u[..., :-1], u[..., 1:]
        fl, fr = fc[..., :-1], fc[..., 1:]
        if len(near):
            fr = fr.copy()
            fr[..., near] = flux.flux_at(k_near, uR[..., near])
        fmin = np.minimum(fl, fr)
        fmax = np.maximum(fl, fr)
        for c, fcr in zip(cL, fcL):
            # c strictly between uL and uR: False at NaN padding and equal ends
            ok = ((uL < c) & (c < uR)) | ((uR < c) & (c < uL))
            np.minimum(fmin, fcr, out=fmin, where=ok)
            np.maximum(fmax, fcr, out=fmax, where=ok)
        np.copyto(fmax, fmin, where=uL <= uR)
        out = fmax
        if len(jump):
            uLj = uL[..., jump]
            D = np.maximum(fl[..., jump], f_lo)
            for c, fcr in zip(cLj, fcLj):
                D = np.where((c > lo) & (c < uLj), np.maximum(D, fcr), D)
            # Ahat(k_R, u_R) at a jump face is its right cell's value
            uRj = uR[..., jump]
            S = np.maximum(fr[..., jump], f_hi)
            for c, fcr in zip(cRj, fcRj):
                S = np.where((c > uRj) & (c < hi), np.maximum(S, fcr), S)
            out[..., jump] = np.minimum(D, S)
        return out

    return F


def _critical_table(flux: FluxSpec, kv):
    """Critical points of each face's flux as rows (NaN-padded where a face
    has fewer), and the flux at them (at lo for the padding, unused).
    flux.critical runs once per distinct coefficient value."""
    ks, inv = np.unique(kv, return_inverse=True)
    crit = [tuple(flux.critical(k)) for k in ks]
    table = np.full((max([len(c) for c in crit] + [0]), len(ks)), np.nan)
    for i, c in enumerate(crit):
        table[:len(c), i] = c
    table = table[:, inv]
    lo = flux.u_range[0]
    return table, [flux.flux_at(kv, np.where(np.isnan(c), lo, c)) for c in table]


def _sweep(F, data, lam, nsteps, cells):
    """nsteps explicit steps u <- u - lam (F_{i+1/2} - F_{i-1/2}).

    data holds the initial cell averages, one array per datum, copied into
    the rows of one buffer with a zero-gradient ghost cell at each end and
    updated in place.  Returns the states of the given cells (an index or
    slice) at every level, shape (rows, nsteps + 1, cells kept), each row's
    one C-contiguous block, and the final states.
    """
    padded = np.empty((len(data), len(data[0]) + 2))
    u = padded[:, 1:-1]
    u[...] = data
    first = u[..., cells]
    out = np.empty(first.shape[:-1] + (nsteps + 1, first.shape[-1]))
    out[..., 0, :] = first
    diff = np.empty_like(u)
    for n in range(nsteps):
        padded[..., 0] = padded[..., 1]
        padded[..., -1] = padded[..., -2]
        Fu = F(padded)
        np.subtract(Fu[..., 1:], Fu[..., :-1], out=diff)
        diff *= lam
        u -= diff
        out[..., n + 1, :] = u[..., cells]
    return out, u

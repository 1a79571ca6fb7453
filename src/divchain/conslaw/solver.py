"""Explicit Godunov finite-volume solver for u_t + d/dx Ahat(k(x), u) = 0.

First-order monotone scheme on a uniform 1D mesh with zero-gradient ghost
cells.  Coefficient jumps must sit on cell faces; those faces couple the
two one-sided fluxes through the demand/supply form of the Godunov flux,
which selects the admissible interface state.  One vectorized numpy sweep
serves every flux: it needs only Ahat and its declared critical points.
It marches any number of initial data on one mesh at once (fv_solve one,
the Kato experiment every datum of every pair), each a row of one buffer
updated in place, and every operation acts on each row on its own.  After
its first step it allocates nothing of the rows' size.
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

    Returns F(u) for rows of F.width columns: cell averages with a ghost cell
    at each end, then scratch cells that F fills.  F's face fluxes (..., n+1),
    Ahat and all else are buffers made once per row shape, overwritten per call.
    A face takes the min (uL <= uR) or max of Ahat(k, .) at its two cells and
    at each critical point c they lie on two sides of (u < c against u >= c;
    at an end, Ahat(k, c) is the end's value bit for bit).  A jump face is
    min(D_L(uL), S_R(uR)) on a block of four scratch cells: D_L, the max of
    Ahat(k_L, .) on [lo, uL], is the face (uL, lo) at k_L, and S_R the face
    (hi, uR) at k_R, each pair the max and min of state and end.  A face
    where k differs in the last bits has (uL, uR) at k_L twice in its block.
    """
    lo, hi = flux.u_range
    n, inf = len(kvals), np.inf
    kpad = np.concatenate([kvals[:1], kvals, kvals[-1:]])
    kL, kR = kpad[:-1], kpad[1:]
    jump = np.flatnonzero(np.abs(kL - kR) > 1e-12)
    near = np.flatnonzero((np.abs(kL - kR) <= 1e-12) & (kL != kR))
    # scratch cells: (source cell, coefficient, clip floor, clip ceiling)
    cells = [c for f in jump for c in ((f, kL[f], lo, inf), (f, kL[f], -inf, lo),
                                        (f + 1, kR[f], hi, inf), (f + 1, kR[f], -inf, hi))]
    cells += [c for f in near for c in 2 * ((f, kL[f], -inf, inf), (f + 1, kL[f], -inf, inf))]
    src, kscr, floor, ceil = np.array(cells, dtype=float).reshape(-1, 4).T
    src = src.astype(np.intp)
    kext = np.concatenate([kpad, kscr])
    crit, fcrit = _critical_table(flux, kext)
    fixed = np.concatenate([jump, near])    # the min of two faces of a scratch block
    buffers = {}

    def F(u):
        if u.shape not in buffers:
            faces = u.shape[:-1] + (u.shape[-1] - 1,)
            buffers[u.shape] = (flux.ahat_into(kext, u.shape), np.empty(faces), np.empty(faces),
                                np.empty(u.shape, dtype=bool), np.empty(faces, dtype=bool))
        ahat, fmin, fmax, side, mask = buffers[u.shape]
        if len(src):
            np.clip(u[..., src], floor, ceil, out=u[..., n + 2:])
        fc = ahat(u)
        np.minimum(fc[..., :-1], fc[..., 1:], out=fmin)
        np.maximum(fc[..., :-1], fc[..., 1:], out=fmax)
        for c, fcr in zip(crit, fcrit):
            np.less(u, c, out=side)         # False at NaN padding
            np.not_equal(side[..., :-1], side[..., 1:], out=mask)
            np.minimum(fmin, fcr[:-1], out=fmin, where=mask)    # a face takes its left
            np.maximum(fmax, fcr[:-1], out=fmax, where=mask)    # cell's value
        np.less_equal(u[..., :-1], u[..., 1:], out=mask)
        np.copyto(fmax, fmin, where=mask)
        if len(src):
            fmax[..., fixed] = np.minimum(fmax[..., n + 2::4], fmax[..., n + 4::4])
        return fmax[..., :n + 1]

    F.width = len(kext)
    return F


def _critical_table(flux: FluxSpec, kv):
    """Critical points of each cell's flux as rows (NaN-padded where a cell
    has fewer), and the flux at them (at lo for the padding, unused).
    flux.critical runs once per distinct coefficient value."""
    ks, inv = np.unique(kv, return_inverse=True)
    crit = [tuple(flux.critical(k)) for k in ks]
    width = max(map(len, crit), default=0)
    table = np.array([c + (np.nan,) * (width - len(c)) for c in crit])[inv].T
    return table, [flux.flux_at(kv, np.where(np.isnan(c), flux.u_range[0], c)) for c in table]


def _sweep(F, data, lam, nsteps, cells):
    """nsteps explicit steps u <- u - lam (F_{i+1/2} - F_{i-1/2}).

    data holds the initial cell averages, one array per datum, copied into
    the rows of one buffer of F.width columns (a ghost cell at each end, then
    F's scratch cells).  Returns the states of the given cells (an index or
    slice) at every level, shape (rows, nsteps + 1, cells kept), each row's
    one C-contiguous block, and the final states.
    """
    n = len(data[0])
    padded = np.empty((len(data), F.width))
    u = padded[:, 1:n + 1]
    u[...] = data
    out = np.empty((len(data), nsteps + 1, u[0, cells].size))
    out[..., 0, :] = u[..., cells]
    diff = np.empty_like(u)
    for step in range(1, nsteps + 1):
        padded[:, 0] = padded[:, 1]
        padded[:, n + 1] = padded[:, n]
        Fu = F(padded)
        np.subtract(Fu[..., 1:], Fu[..., :-1], out=diff)
        diff *= lam
        u -= diff
        out[..., step, :] = u[..., cells]
    return out, u

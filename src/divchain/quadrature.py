"""Batched adaptive Gauss-Kronrod quadrature.

All integrands are vectorized: they accept an array of abscissae and return
an array of values, so adaptive refinement evaluates every active segment in
a single call.  Declared breakpoints split the range into smooth pieces
before any subdivision happens, which is what keeps piecewise-smooth
integrands (fields with jump sets) cheap; integrate_abs finds the breaks of
|f| itself, with the bracketed root finder that the crossing scans share.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import GeometryError, IntegrationError

# G7-K15 rule on [-1, 1]; Gauss nodes are the odd-index Kronrod nodes.
_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_GAUSS_IDX = np.arange(1, 15, 2)

DEFAULT_TOL = 1e-10

# integrate_to_upper: Gauss orders tried in turn, and the stabilization test
_UPPER_ORDERS = (8, 16, 32, 64, 128, 256)
_UPPER_TOL = 1e-12


@lru_cache(maxsize=None)
def gauss(order):
    """Gauss-Legendre nodes and weights of `order` on [-1, 1]; cached and
    shared, so callers must not write to them."""
    return np.polynomial.legendre.leggauss(order)


def _non_finite(values, abscissae):
    """IntegrationError naming the abscissa of the first non-finite value.

    values has one row per abscissa; abscissae is (n,) or (n, dim).
    """
    bad = ~np.isfinite(values).reshape(len(abscissae), -1).all(axis=1)
    at = np.atleast_1d(abscissae[int(np.argmax(bad))])
    text = ", ".join(repr(float(a)) for a in at)
    return IntegrationError(f"non-finite integrand at {text if len(at) == 1 else f'({text})'}")


def _segments_from_breaks(a, b, breakpoints):
    # np.sort, not np.unique, which raised the chain workload's peak RSS by 5 MB (numpy 2.4)
    p = np.sort(np.asarray(breakpoints, dtype=float))
    keep = (a + 1e-14 * max(1, abs(a)) < p) & (p < b - 1e-14 * max(1, abs(b)))
    keep[1:] &= p[1:] != p[:-1]     # one break of each run of equal ones
    pts = np.concatenate([[a], p[keep], [b]])
    return pts[:-1], pts[1:]


def gk_segments(f, lo, hi):
    """G7-K15 on each [lo_i, hi_i]; returns (kronrod values, error estimates).

    One call to f with every node of every segment.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _XGK[None, :]   # (nseg, 15)
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    if not np.all(np.isfinite(vals)):
        raise _non_finite(vals.ravel(), nodes.ravel())
    # einsum, not a BLAS product, which rounds a row by the rows beside it; the
    # Gauss nodes as a strided view, which einsum sums in the same order for
    # any number of rows (a fancy-indexed copy is laid out by the row count)
    ik = half * np.einsum("ij,j->i", vals, _WGK)
    ig = half * np.einsum("ij,j->i", vals[:, 1::2], _WG)
    # QUADPACK-style sharpened error estimate
    mean = ik / np.where(hi - lo == 0, 1, hi - lo)
    resasc = half * np.einsum("ij,j->i", np.abs(vals - mean[:, None]), _WGK)
    raw = np.abs(ik - ig)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(
            (resasc != 0) & (raw != 0),
            resasc * np.minimum(1.0, (200.0 * raw / np.where(resasc == 0, 1, resasc)) ** 1.5),
            raw,
        )
    err = np.where(raw == 0, 0.0, scaled)
    return ik, err


# _refine: refinement rounds, the parts that all rows of one call may hold,
# and, by dimension, the parts that one rule call evaluates (a cap on the
# rule's memory that moves no value, since both rules are row-independent)
_ROUNDS = 64
_MAX_PARTS = 1 << 18
_RULE_PARTS = {1: 1024, 2: 18}


def _refine(rule, parts, row, tol_abs, tol_rel, max_parts=16384):
    """Globally adaptive refinement (QUADPACK) of len(tol_abs) integrals, or
    rows, at once (batched as in DCUHRE); returns their (totals, error sums),
    each added up in part order.

    parts[i] is an interval (lo, hi) or a rectangle (u0, u1, s0, s1) of row
    row[i], and rule(parts, row) returns each part's value and error
    estimate; each round it runs on the new parts of every unfinished row, on
    at most _RULE_PARTS of them per call.  A row is done, its total kept and
    its parts dropped, once its error sum is within max(tol_abs[row],
    tol_rel |total|).  Until then it halves, across the longest side, each
    part whose error is above its size share of that budget or, when none
    is, each part with at least half the row's largest error.  A row of more
    than max_parts parts, or the unfinished rows of more than _MAX_PARTS,
    stalls."""
    n, dim = len(tol_abs), parts.shape[1] // 2
    done_total, done_err = np.zeros(n), np.zeros(n)
    vals, errs = _rule_in_chunks(rule, parts, row)
    for _ in range(_ROUNDS):
        total, errsum = np.bincount(row, vals, n), np.bincount(row, errs, n)
        tol = np.maximum(tol_abs, tol_rel * np.abs(total))
        count = np.bincount(row, None, n)
        live = errsum > tol
        done = ~live & (count > 0)
        done_total[done], done_err[done] = total[done], errsum[done]
        if not live.any():
            return done_total, done_err
        keep = live[row]
        parts, row, vals, errs = parts[keep], row[keep], vals[keep], errs[keep]
        if len(parts) > max_parts:
            worst = int(np.argmax(count * live))
            if count[worst] > max_parts or len(parts) > _MAX_PARTS:
                raise IntegrationError(f"{dim}d quadrature stalled: {count[worst]} parts, "
                                       f"error {errsum[worst]:.3e} > {tol[worst]:.3e}")
        side = parts[:, 1::2] - parts[:, ::2]
        size = side.prod(axis=1)
        share = tol[row] * size / np.bincount(row, size, n)[row]
        bad = errs > np.maximum(share, 1e-300)
        flat = live & (np.bincount(row, bad, n) == 0)
        if flat.any():
            top = np.zeros(n)
            np.maximum.at(top, row, errs)
            bad |= flat[row] & (errs >= 0.5 * top[row])
        # both halves of each bad part, across its longer side (the first on a
        # tie); in each row first halves first, the rule seeing each row's
        # halves side by side
        first, k = parts[bad], 2 * (side[:, -1] > side[:, 0])[bad]
        second, i = first.copy(), np.arange(len(first))
        first[i, k + 1] = second[i, k] = 0.5 * (first[i, k] + first[i, k + 1])
        new_row = np.tile(row[bad], 2)
        order = np.argsort(new_row, kind="stable")
        new, keep = (np.concatenate([first, second])[order], new_row[order]), ~bad
        parts, row, vals, errs = (np.concatenate([old[keep], add]) for old, add in
                                  zip((parts, row, vals, errs),
                                      (*new, *_rule_in_chunks(rule, *new))))
    raise IntegrationError(f"{dim}d quadrature did not converge")


def _rule_in_chunks(rule, parts, row):
    """rule(parts, row) on at most _RULE_PARTS[dim] parts per call."""
    cap = _RULE_PARTS[parts.shape[1] // 2]
    out = [rule(parts[i:i + cap], row[i:i + cap]) for i in range(0, len(parts), cap)]
    return tuple(np.concatenate(c) for c in zip(*out)) if out else (np.zeros(0), np.zeros(0))


def by_runs(fns, keys, *args):
    """fns[keys[j]] at the j-th entries of args, stacked: one call of each
    function per run of equal consecutive keys."""
    cut = (np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()
    return np.concatenate([np.asarray(fns[keys[a]](*(x[a:b] for x in args)), dtype=float)
                           for a, b in zip([0, *cut], [*cut, len(keys)])])


def integrate_1d(f, a, b, breakpoints=(), tol_abs=DEFAULT_TOL, tol_rel=DEFAULT_TOL,
                 max_segments=16384):
    """Adaptive integral of vectorized f over [a, b]: one _refine row over the
    pieces between the breakpoints; returns (value, error_estimate).

    Rows: with arrays a and b, row r integrates f(x, rows) over [a[r], b[r]]
    split at breakpoints[r] (none when breakpoints is empty), each row to
    tol_abs, where rows names the row of each abscissa, and values and error
    estimates are arrays.  Raises IntegrationError when a row's segment budget
    is exhausted before its tolerance is met.
    """
    one = np.ndim(a) == 0
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    breaks = [breakpoints] if one else breakpoints if len(breakpoints) else [()] * len(a)
    pieces = [np.column_stack(_segments_from_breaks(lo, hi, bk)) if hi > lo else np.empty((0, 2))
              for lo, hi, bk in zip(a, b, breaks)]
    total, err = _refine(_node_rule((lambda x, rows: f(x)) if one else f),
                         np.concatenate([np.empty((0, 2)), *pieces]),
                         np.repeat(np.arange(len(a)), [len(p) for p in pieces]),
                         np.full(len(a), tol_abs), tol_rel, max_segments)
    return (float(total[0]), float(err[0])) if one else (total, err)


# The bracket width at which the crossing scans stop.
ROOT_XTOL = 1e-14


def bracketed_roots(f, a, b, fa, fb, xtol=ROOT_XTOL):
    """One root of f in each bracket [a[i], b[i]] whose end values fa, fb have
    strictly opposite signs: the midpoints of the brackets once solved, that
    is no wider than xtol + 4 eps |a|.  Each step calls the vectorized
    f(x, live) once, with x[j] in the open bracket live[j], at its Illinois
    point (regula falsi that halves the value of an end kept twice in a row)
    drawn toward the midpoint as in the ITP method, so that no bracket takes
    more than 3 steps beyond the log2(width / xtol) of bisection.  A
    non-finite f raises GeometryError."""
    a0, b0 = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    a, b, fa, fb = a0.copy(), b0.copy(), np.array(fa, dtype=float), np.array(fb, dtype=float)
    steps = np.ceil(np.log2(np.maximum((b - a) / xtol, 1.0))) + 3     # steps left
    moved = np.zeros(len(a))              # +1: the last step moved a, -1: it moved b
    live = np.flatnonzero(b - a > xtol + 4 * np.finfo(float).eps * np.abs(a))
    while live.size:
        al, bl, fal, fbl, ml = a[live], b[live], fa[live], fb[live], moved[live]
        steps[live] -= 1
        # within r of the midpoint, the bracket is at most xtol 2^steps wide after
        r = xtol * 2.0 ** steps[live] - 0.5 * (bl - al)
        mid = 0.5 * (al + bl)
        x = np.clip(al + (bl - al) * fal / (fal - fbl), mid - r, mid + r)
        fx = np.asarray(f(x, live), dtype=float)
        if not np.isfinite(fx).all():
            j = np.argmin(np.isfinite(fx))
            raise GeometryError(f"root search in [{float(a0[live[j]])!r}, "
                                f"{float(b0[live[j]])!r}]: non-finite value at {float(x[j])!r}")
        left = np.sign(fx) == np.sign(fal)       # the root is in [x, b]
        right = np.sign(fx) == np.sign(fbl)      # the root is in [a, x]
        a[live] = np.where(right, al, x)         # f(x) == 0 moves both ends to x
        b[live] = np.where(left, bl, x)
        # a half that underflows to 0 would lose the end's sign: keep the value
        fa[live] = np.where(left, fx, np.where(right & (ml < 0) & (0.5 * fal != 0), 0.5 * fal, fal))
        fb[live] = np.where(right, fx, np.where(left & (ml > 0) & (0.5 * fbl != 0), 0.5 * fbl, fbl))
        moved[live] = left.astype(float) - right
        live = live[b[live] - a[live] > xtol + 4 * np.finfo(float).eps * np.abs(a[live])]
    return 0.5 * (a + b)


class CurvedCell:
    """Region a1 <= x1 <= b1, lo(x1) <= x2 <= hi(x1), lo/hi vectorized."""

    def __init__(self, a1, b1, lo, hi):
        self.a1 = float(a1)
        self.b1 = float(b1)
        self.lo = lo if callable(lo) else (lambda x, c=float(lo): np.full_like(x, c))
        self.hi = hi if callable(hi) else (lambda x, c=float(hi): np.full_like(x, c))


def _cell_rect_values(f, cells, rects, row):
    """Tensor G7-K15 on rectangles (u0, u1, s0, s1) of the cells' (x1, s)
    parameter squares, rects[i] in cells[row[i]]: returns (vals, errs).

    Every rectangle goes through one call to f; lo/hi are evaluated per cell,
    once per x1 node, since they depend on x1 alone.  Node (r, i, j) is
    (x1_ri, lo_ri + s_rj width_ri), in that order.
    """
    u0, u1, s0, s1 = rects.T
    umid, uhalf = 0.5 * (u0 + u1), 0.5 * (u1 - u0)
    smid, shalf = 0.5 * (s0 + s1), 0.5 * (s1 - s0)
    xu = umid[:, None] + uhalf[:, None] * _XGK[None, :]          # (nr, 15)
    xs = smid[:, None] + shalf[:, None] * _XGK[None, :]          # (nr, 15)
    lo, hi = np.empty_like(xu), np.empty_like(xu)
    order = np.argsort(row, kind="stable")
    ids, starts = np.unique(row[order], return_index=True)
    for i, at in zip(ids, np.split(order, starts[1:])):
        x1 = xu[at].ravel()
        lo[at] = cells[i].lo(x1).reshape(-1, 15)
        hi[at] = cells[i].hi(x1).reshape(-1, 15)
    lo = lo[:, :, None]
    width = hi[:, :, None] - lo
    nodes = np.empty((len(rects), 15, 15, 2))
    nodes[..., 0] = xu[:, :, None]
    nodes[..., 1] = lo + xs[:, None, :] * width
    pts = nodes.reshape(-1, 2)
    vals = np.asarray(f(pts), dtype=float).reshape(-1, 15, 15) * width
    if not np.all(np.isfinite(vals)):
        raise _non_finite(vals.ravel(), pts)
    jac = uhalf * shalf
    ik = np.einsum("rij,i,j->r", vals, _WGK, _WGK) * jac
    g = vals[:, _GAUSS_IDX][:, :, _GAUSS_IDX]
    ig = np.einsum("rij,i,j->r", g, _WG, _WG) * jac
    return ik, np.abs(ik - ig)


def integrate_cells(f, cells, tol_abs=1e-10, tol_rel=1e-10):
    """Adaptive tensor quadrature of vectorized f(pts) over a cell decomposition.

    Each cell is a _refine row of its (x1, s) square with the absolute budget
    tol_abs / len(cells), and the cell values are added in the order of
    `cells`.  Each refinement round evaluates the new rectangles of every
    unfinished cell in as few calls to f as _RULE_PARTS allows.

    Rows: when cells is a list of cell lists, row r integrates f(pts, rows)
    over cells[r], each of its cells with the budget tol_abs / len(cells[r]),
    where rows names the row of each point, all in one _refine; values and
    error estimates are arrays.
    """
    one = not cells or isinstance(cells[0], CurvedCell)
    groups = [cells] if one else cells
    flat = [c for grp in groups for c in grp]
    of = np.repeat(np.arange(len(groups)), [len(grp) for grp in groups])     # row of each cell
    g = (lambda pts, rows: f(pts)) if one else f
    total, err = (np.bincount(of, v, len(groups)) for v in _refine(
        lambda p, r: _cell_rect_values(lambda pts: g(pts, np.repeat(of[r], 225)), flat, p, r),
        np.array([[c.a1, c.b1, 0.0, 1.0] for c in flat]).reshape(-1, 4), np.arange(len(flat)),
        np.array([max(tol_abs / len(grp), 1e-15) for grp in groups for _ in grp]), tol_rel))
    return (float(total[0]), float(err[0])) if one else (total, err)


# integrate_abs: scan points per range, the share of an outer node's
# tolerance that its inner integrals get, and the bracket width of its breaks
ABS_SCAN_POINTS = 65
ABS_INNER_SHARE = 0.1
ABS_XTOL = 1e-9


def _one_sign_ends(f, lo, hi):
    """(row, abscissa), sorted, of the ends of the pieces of each [lo[r], hi[r]]
    on which f(y, rows) keeps one sign: lo, hi, and a root (bracketed_roots)
    between each two neighbours of opposite signs on a scan that reaches the
    ends, zeros skipped.  At a local minimum of |f| on the scan, the vertex of
    the parabola through its three points joins the scan, so that two roots
    in one scan interval show.  Where f only touches 0, |f| has no kink."""
    n, m = len(lo), ABS_SCAN_POINTS
    t = np.linspace(0.0, 1.0, m)
    t[[0, -1]] = 1e-9, 1 - 1e-9            # the ends, seen from inside the range
    ys = lo[:, None] + (hi - lo)[:, None] * t
    fy = np.asarray(f(ys.ravel(), np.repeat(np.arange(n), m)), dtype=float).reshape(n, m)
    a = np.abs(fy)
    r, j = np.nonzero((fy[:, :-2] * fy[:, 1:-1] > 0) & (fy[:, 1:-1] * fy[:, 2:] > 0)
                      & (a[:, 1:-1] < a[:, :-2]) & (a[:, 1:-1] <= a[:, 2:]))
    f0, f1, f2 = fy[r, j], fy[r, j + 1], fy[r, j + 2]
    v = ys[r, j + 1] + 0.25 * (ys[r, j + 2] - ys[r, j]) * (f0 - f2) / (f0 - 2 * f1 + f2)
    y = np.concatenate([ys.ravel(), v])
    fv = np.concatenate([fy.ravel(), np.asarray(f(v, r), dtype=float) if r.size else v])
    row = np.concatenate([np.repeat(np.arange(n), m), r])
    order = np.lexsort((y, row))
    keep = order[np.isfinite(fv[order]) & (fv[order] != 0)]
    y, fv, row = y[keep], fv[keep], row[keep]
    flip = np.flatnonzero((row[1:] == row[:-1]) & ((fv[1:] > 0) != (fv[:-1] > 0)))
    r = row[flip]
    roots = bracketed_roots(lambda x, live: f(x, r[live]), y[flip], y[flip + 1],
                            fv[flip], fv[flip + 1], ABS_XTOL)
    row = np.concatenate([np.arange(n), np.arange(n), r])
    at = np.concatenate([lo, hi, roots])
    order = np.lexsort((at, row))
    return row[order], at[order]


def _node_rule(g):
    """The interval rule of _refine for g(x, rows): G7-K15, each node named
    with its part's row."""
    return lambda p, r: gk_segments(lambda x: g(x, np.repeat(r, 15)), p[:, 0], p[:, 1])


def integrate_abs(f, cells, tol_abs, tol_rel, breaks=()):
    """\\int |f| over cells on which f is smooth, cut where f changes sign
    (_one_sign_ends), so that no rule straddles a kink of |f| that the scan
    finds.  A break is solved to ABS_XTOL, not ROOT_XTOL: a cut delta from
    the root leaves a sliver where the rule integrates -|f|, an error of at
    most max|f'| delta^2, about 1e-18 against TV tolerances of 1e-9 to 3e-7.
    1-D: the cells are (a, b) intervals that tile a range, f maps
    (n, 1) points, and the piece ends and the breaks split one integrate_1d.
    2-D: the cells are CurvedCells, f maps (n, 2) points, and the outer rule
    in x1 is one _refine row per cell, with the per-cell budget of
    integrate_cells; at each node x1 the inner rule integrates |f(x1, .)|
    over the pieces of [lo(x1), hi(x1)], one _refine row per node, to
    ABS_INNER_SHARE of the node's share of that budget.  With a list of cell
    lists, as in integrate_cells, each list is a group with its own budget
    and value, from one scan and one refinement over every cell."""
    one = not cells or not isinstance(cells[0], list)
    groups = [cells] if one else cells
    flat = [c for grp in groups for c in grp]
    of = np.repeat(np.arange(len(groups)), [len(grp) for grp in groups])     # group of each cell
    if not flat:
        return 0.0 if one else np.zeros(len(groups))
    if not isinstance(flat[0], CurvedCell):
        a, b = np.array(flat, dtype=float).T
        row, ends = _one_sign_ends(lambda y, rows: f(y[:, None]), a, b)
        ends = np.split(ends, np.searchsorted(of[row], np.arange(1, len(groups))))
        vals = integrate_1d(lambda x, rows: np.abs(f(x[:, None])), [g[0][0] for g in groups],
                            [g[-1][1] for g in groups], [np.concatenate([e, breaks]) for e in ends],
                            tol_abs, tol_rel)[0]
    else:
        per = np.array([max(tol_abs / len(grp), 1e-15) for grp in groups for _ in grp])
        width = np.array([c.b1 - c.a1 for c in flat])

        def across(x, cell):
            lo, hi = (by_runs([getattr(c, k) for c in flat], cell, x) for k in ("lo", "hi"))
            g = lambda y, rows: f(np.column_stack([x[rows], y]))
            row, at = _one_sign_ends(g, lo, hi)
            cut = (row[1:] == row[:-1]) & (at[1:] > at[:-1])
            return _refine(_node_rule(lambda y, rows: np.abs(g(y, rows))),
                           np.column_stack([at[:-1][cut], at[1:][cut]]), row[:-1][cut],
                           ABS_INNER_SHARE * per[cell] / width[cell], ABS_INNER_SHARE * tol_rel)[0]

        vals = np.bincount(of, _refine(_node_rule(across), np.array([[c.a1, c.b1] for c in flat]),
                                       np.arange(len(flat)), per, tol_rel)[0], len(groups))
    return float(vals[0]) if one else vals


def integrate_polar(f, center, radius, theta_breaks=(), tol_abs=1e-10, rho_breaks=()):
    """Integral of f over a disc on polar cells [theta edges] x [0, *rho_breaks, radius]."""
    cx, cy = center
    t0, t1 = 0.0, 2.0 * np.pi
    # fold every angular break into [t0, t1]
    breaks = [b + 2 * np.pi * np.floor((t1 - b) / (2 * np.pi)) for b in theta_breaks]

    def integrand(pts):
        th = pts[:, 0]
        rho = pts[:, 1]
        xy = np.column_stack([cx + rho * np.cos(th), cy + rho * np.sin(th)])
        return np.asarray(f(xy), dtype=float) * rho

    # put declared angular breakpoints in as separate cells
    bks = sorted(b for b in breaks if t0 < b < t1)
    edges = [t0] + bks + [t1]
    rho = [0.0] + sorted(float(r) for r in rho_breaks if 0.0 < r < radius) + [float(radius)]
    cells = [CurvedCell(pa, pb, ra, rb) for pa, pb in zip(edges[:-1], edges[1:])
             for ra, rb in zip(rho[:-1], rho[1:])]
    return integrate_cells(integrand, cells, tol_abs=tol_abs)


def integrate_to_upper(g, upper, kinks=(), degree=None):
    """Per-point integral F_i = \\int_0^{upper_i} g(w) dw, batched.

    g maps an array w of shape (n,) (one abscissa per output point) to
    values of shape (n,) or (n, d), and the result has the same shape; if
    every upper limit is 0, g is never called and the result is (n,) zeros.
    Kinks are global abscissae where g may lose smoothness; every per-point
    range is split there.

    When g is a polynomial in w of known `degree` d, one Gauss order,
    max(1, ceil((d + 1) / 2)), runs on each piece; it is exact up to
    rounding.  Otherwise (degree None, or d above 511) the order doubles from
    8 to at most 256, and each entry (point, and component) stops at the
    first order where it stabilizes: |F - F_prev| <= 1e-12 max(|F|, 1), so
    a point's value does not depend on the points beside it in the call.
    Raises IntegrationError when an entry does not stabilize or g is not
    finite.
    """
    upper = np.asarray(upper, dtype=float)
    sgn = np.sign(upper)
    lo = np.minimum(0.0, upper)
    hi = np.maximum(0.0, upper)
    cuts = sorted(set(float(k) for k in kinks))
    edges = np.array([-np.inf] + cuts + [np.inf])
    pieces = []
    for a, b in zip(edges[:-1], edges[1:]):
        c0 = lo if a == -np.inf else np.clip(a, lo, hi)     # clip(-inf, lo, hi) is lo
        c1 = hi if b == np.inf else np.clip(b, lo, hi)
        width = c1 - c0
        if not np.all(width == 0):
            pieces.append((0.5 * (c0 + c1), 0.5 * width))

    def compute(n):
        x, w = gauss(n)
        acc = 0.0
        for mid, hw in pieces:
            hwc = None
            for xi, wi in zip(x, w):
                val = g(mid + hw * xi)
                if hwc is None:
                    hwc = _per_row(hw, val)
                acc += wi * hwc * val
        if not np.all(np.isfinite(acc)):
            raise _non_finite_upper(g, pieces, x)
        return _per_row(sgn, acc) * acc

    orders = _UPPER_ORDERS
    if degree is not None and degree < 2 * _UPPER_ORDERS[-1]:
        orders = ((degree + 2) // 2,)            # ceil((d + 1) / 2) nodes, exact
    prev = out = compute(orders[0])
    settled = np.full(np.shape(out), len(orders) == 1)
    for n in orders[1:]:
        cur = compute(n)
        out = np.where(settled, out, cur)
        settled = settled | (np.abs(cur - prev) <= _UPPER_TOL * np.maximum(np.abs(cur), 1.0))
        if np.all(settled):
            break
        prev = cur
    if not np.all(settled):
        raise IntegrationError("parameter quadrature did not stabilize")
    return out


def _per_row(v, like):
    """v of shape (n,), as a column when `like` is (n, d)."""
    return v[:, None] if np.ndim(like) == 2 else v


def _non_finite_upper(g, pieces, x):
    """Failure path of integrate_to_upper: find the node where g is not finite."""
    for mid, hw in pieces:
        for xi in x:
            w = mid + hw * xi
            val = np.asarray(g(w), dtype=float)
            if not np.all(np.isfinite(val)):
                return _non_finite(val, w)
    return IntegrationError("parameter quadrature overflowed")

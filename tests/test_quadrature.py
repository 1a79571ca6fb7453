"""The quadrature engine against scipy's QUADPACK as an independent oracle."""

import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from divchain import ParamField, PrimitiveField, quadrature
from divchain.cantor import MIDDLE_THIRDS, construction_endpoints, ifs_cdf
from divchain.errors import IntegrationError
from divchain.quadrature import (_GAUSS_IDX, _WG, _WGK, _XGK, ABS_SCAN_POINTS, ROOT_XTOL,
                                 CurvedCell, _cell_rect_values, _refine, _segments_from_breaks,
                                 gauss, gk_segments, integrate_1d, integrate_abs,
                                 integrate_cells, integrate_polar, integrate_to_upper)
from divchain.rectifiable import GraphCurve, RectifiableSet, box_cells
from divchain.scenario import build_domain, build_field, build_singular, parse_text

from helpers import abs_integral_reference, box_domain


def test_smooth_against_scipy():
    f = lambda x: np.sin(3 * x) * np.exp(x)
    ref = quad(lambda x: np.sin(3 * x) * np.exp(x), -1, 2, epsabs=1e-13)[0]
    val, err = integrate_1d(f, -1, 2, tol_abs=1e-12)
    assert abs(val - ref) < 1e-11
    assert err < 1e-10


def test_breakpoints_split_discontinuity():
    f = lambda x: np.sign(x) * (1 + x * x)
    ref = quad(lambda x: np.sign(x) * (1 + x * x), -1, 2, points=[0.0], epsabs=1e-13)[0]
    val, _ = integrate_1d(f, -1, 2, breakpoints=[0.0], tol_abs=1e-12)
    assert abs(val - ref) < 1e-11


def test_refinement_monotonicity():
    f = lambda x: 1.0 / (1.0 + 25 * x * x)
    v1, e1 = integrate_1d(f, -1, 1, tol_abs=1e-8)
    v2, _ = integrate_1d(f, -1, 1, tol_abs=5e-9)
    assert abs(v2 - v1) < e1


def test_stall_raises():
    # a genuinely wild integrand with an unsplit discontinuity and a tiny budget
    f = lambda x: np.sign(np.sin(50.0 / (np.abs(x) + 1e-3)))
    with pytest.raises(IntegrationError):
        integrate_1d(f, -1, 1, tol_abs=1e-14, max_segments=64)


def ref_segments_from_breaks(a, b, breakpoints):
    """The loop that _segments_from_breaks replaced, one break at a time."""
    pts = [a]
    for p in sorted(set(float(q) for q in breakpoints)):
        if a + 1e-14 * max(1, abs(a)) < p < b - 1e-14 * max(1, abs(b)):
            pts.append(p)
    pts.append(b)
    return np.array(pts[:-1]), np.array(pts[1:])


@st.composite
def interval_and_breaks(draw):
    """[a, b] and an unsorted list of breaks with duplicates, signed zeros,
    and breaks at, within and just past 1e-14 of either end."""
    a = draw(st.one_of(st.sampled_from([0.0, -0.0, -1.0, 1e-15, 3.0]), st.floats(-5.0, 5.0)))
    b = a + draw(st.one_of(st.just(1.0), st.floats(1e-6, 4.0)))
    near = [e + s * m * 1e-14 * max(1, abs(e)) for e in (a, b) for s in (-1, 1)
            for m in (0.5, 1.0, 2.0)]
    near += [np.nextafter(e, d) for e in (a, b) for d in (-np.inf, np.inf)]
    pool = st.one_of(st.sampled_from([a, b, 0.0, -0.0, 0.5 * (a + b)] + near),
                     st.floats(a - 1.0, b + 1.0))
    return a, b, draw(st.lists(pool, max_size=12))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(interval_and_breaks())
def test_segments_from_breaks_match_the_loop(case):
    a, b, breaks = case
    assert _segments_from_breaks(a, b, [])[0].tolist() == [a]
    got, ref = _segments_from_breaks(a, b, breaks), ref_segments_from_breaks(a, b, breaks)
    assert all(np.array_equal(g, r) for g, r in zip(got, ref))


@st.composite
def one_d_rows(draw):
    """1-D integrals, each over its own range and breaks, of sin(w x) + |x - k|
    with its own w, undeclared kink k and tolerance."""
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        a = draw(st.floats(-2.0, 1.0))
        b = a + draw(st.floats(0.1, 3.0))
        breaks = draw(st.lists(st.floats(a, b), max_size=3))
        rows.append((a, b, breaks, draw(st.floats(0.5, 30.0)), draw(st.floats(a, b)),
                     draw(st.sampled_from([1e-6, 1e-9, 1e-12]))))
    return rows


@settings(max_examples=40, deadline=None, derandomize=True)
@given(one_d_rows(), st.sampled_from([1, 3, 1024]))
def test_batched_rows_are_bit_equal_to_each_row_alone(rows, cap):
    # every segment of a round goes through one gk_segments call, or through
    # calls of at most `cap` segments when the rule's batch cap splits the
    # round (1024 is the 1-D cap), and each row still reads its value alone
    w, k = (np.array([r[i] for r in rows]) for i in (3, 4))
    g = lambda x, r: np.sin(w[r] * x) + np.abs(x - k[r])
    calls = []

    def rule(p, r):
        calls.append(len(p))
        return gk_segments(lambda x: g(x, np.repeat(r, 15)), p[:, 0], p[:, 1])

    pieces = [np.column_stack(_segments_from_breaks(*r[:3])) for r in rows]
    tol = np.array([r[5] for r in rows])
    with patch.dict(quadrature._RULE_PARTS, {1: cap}):
        total, err = _refine(rule, np.vstack(pieces),
                             np.repeat(np.arange(len(rows)), [len(p) for p in pieces]), tol, 1e-10)
    assert max(calls) <= cap
    batch_calls = len(calls)
    rounds = []
    for i, piece in enumerate(pieces):
        calls.clear()
        alone = _refine(lambda p, r: rule(p, r + i), piece, np.zeros(len(piece), dtype=int),
                        tol[i:i + 1], 1e-10)
        assert (total[i], err[i]) == (alone[0][0], alone[1][0])
        rounds.append(len(calls))
    # uncapped, one rule call per round: as many as the slowest row needs alone
    if cap == 1024:
        assert max(rounds) == batch_calls


def test_a_capped_round_keeps_every_value():
    # 40 rows of one round: the 1-D cap of 1024 segments splits the round
    # into calls, and every row reads the value of the uncapped call
    edges = [np.linspace(a, a + 0.5 + 0.01 * r, 31) for r, a in enumerate(np.linspace(-1, 0.5, 40))]
    parts = np.vstack([np.column_stack([e[:-1], e[1:]]) for e in edges])
    row = np.repeat(np.arange(40), 30)
    calls = []
    rule = lambda p, r: calls.append(len(p)) or gk_segments(lambda x: np.sin(9 * x + np.repeat(r, 15)),
                                                           p[:, 0], p[:, 1])
    capped = _refine(rule, parts, row, np.full(40, 1e-13), 1e-13)
    assert max(calls) == quadrature._RULE_PARTS[1] and len(calls) >= 2
    with patch.dict(quadrature._RULE_PARTS, {1: 1 << 20}):
        calls.clear()
        whole = _refine(rule, parts, row, np.full(40, 1e-13), 1e-13)
    assert calls[0] == len(parts)
    assert np.array_equal(capped[0], whole[0]) and np.array_equal(capped[1], whole[1])


def test_integrate_to_upper_without_a_degree_is_batch_invariant():
    # with degree None each point picks its own Gauss order, so the points
    # beside it in the call move none of its bits, as with a known degree;
    # when the order was chosen over the whole call, [0.1, 4.0] gave ...17
    g = lambda w: np.exp(3 * w) * np.cos(7 * w)
    assert integrate_to_upper(g, np.array([0.1]))[0] == 0.10662943659540115
    assert integrate_to_upper(g, np.array([0.1, 4.0]))[0] == 0.10662943659540115
    p = lambda w: 1 + w - 2 * w ** 3
    assert integrate_to_upper(p, np.array([0.1]), degree=3)[0] \
        == integrate_to_upper(p, np.array([0.1, 4.0]), degree=3)[0]


def test_curved_cell():
    cell = CurvedCell(0, 1, 0.0, lambda x: 1 + 0.5 * np.sin(np.pi * x))
    ref = quad(lambda x: x * (1 + 0.5 * np.sin(np.pi * x)) ** 2 / 2, 0, 1,
               epsabs=1e-13)[0]
    val, _ = integrate_cells(lambda p: p[:, 0] * p[:, 1], [cell], tol_abs=1e-11)
    assert abs(val - ref) < 1e-10


def test_cells_sum():
    cells = [CurvedCell(0, 1, 0.0, 1.0), CurvedCell(1, 2, 0.0, 1.0)]
    val, _ = integrate_cells(lambda p: np.ones(len(p)), cells)
    assert abs(val - 2.0) < 1e-12


# -- reference: one cell at a time, each rectangle batch in its own call ----

def ref_cell_tensor(f, cell, rect):
    """Tensor G7-K15 on sub-rectangles (u0, u1, s0, s1) of one cell."""
    u0, u1, s0, s1 = rect.T
    umid, uhalf = 0.5 * (u0 + u1), 0.5 * (u1 - u0)
    smid, shalf = 0.5 * (s0 + s1), 0.5 * (s1 - s0)
    xu = umid[:, None] + uhalf[:, None] * _XGK[None, :]
    xs = smid[:, None] + shalf[:, None] * _XGK[None, :]
    x1 = np.repeat(xu[:, :, None], 15, axis=2)
    ss = np.repeat(xs[:, None, :], 15, axis=1)
    lo = cell.lo(x1.ravel())
    hi = cell.hi(x1.ravel())
    width = hi - lo
    x2 = lo + ss.ravel() * width
    vals = np.asarray(f(np.column_stack([x1.ravel(), x2])), dtype=float) * width
    vals = vals.reshape(-1, 15, 15)
    jac = uhalf * shalf
    ik = np.einsum("rij,i,j->r", vals, _WGK, _WGK) * jac
    g = vals[:, _GAUSS_IDX][:, :, _GAUSS_IDX]
    ig = np.einsum("rij,i,j->r", g, _WG, _WG) * jac
    return ik, np.abs(ik - ig)


def ref_integrate_cell(f, cell, tol_abs, tol_rel, max_rects=16384):
    rects = np.array([[cell.a1, cell.b1, 0.0, 1.0]])
    vals, errs = ref_cell_tensor(f, cell, rects)
    for _ in range(40):
        total = float(np.sum(vals))
        errsum = float(np.sum(errs))
        tol = max(tol_abs, tol_rel * abs(total))
        if errsum <= tol:
            return total, errsum
        if len(rects) > max_rects:
            raise IntegrationError("2d quadrature stalled")
        area = (rects[:, 1] - rects[:, 0]) * (rects[:, 3] - rects[:, 2])
        bad = errs > np.maximum(tol * area / area.sum(), 1e-300)
        if not np.any(bad):
            bad = errs >= 0.5 * errs.max()
        split = []
        for u0, u1, s0, s1 in rects[bad]:
            if (u1 - u0) >= (s1 - s0):
                um = 0.5 * (u0 + u1)
                split += [[u0, um, s0, s1], [um, u1, s0, s1]]
            else:
                sm = 0.5 * (s0 + s1)
                split += [[u0, u1, s0, sm], [u0, u1, sm, s1]]
        split = np.array(split)
        sv, se = ref_cell_tensor(f, cell, split)
        rects = np.vstack([rects[~bad], split])
        vals = np.concatenate([vals[~bad], sv])
        errs = np.concatenate([errs[~bad], se])
    raise IntegrationError("2d quadrature did not converge")


def ref_integrate_cells(f, cells, tol_abs, tol_rel):
    per = max(tol_abs / len(cells), 1e-15)
    total, err = 0.0, 0.0
    for cell in cells:
        v, e = ref_integrate_cell(f, cell, per, tol_rel)
        total += v
        err += e
    return total, err


@st.composite
def cells_and_integrands(draw):
    """Adjacent strips of constant or graph-bounded cells and a smooth f."""
    edges = np.cumsum([-1.0] + draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=4)))
    cells = []
    for a, b in zip(edges[:-1], edges[1:]):
        if draw(st.booleans()):
            lo, hi = sorted(draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2)))
            cells.append(CurvedCell(a, b, lo, hi + 0.05))
        else:
            c, amp, w = draw(st.floats(-0.5, 0.5)), draw(st.floats(0.0, 0.4)), draw(st.floats(0.5, 4.0))
            lo = lambda x, c=c, amp=amp, w=w: c + amp * np.sin(w * x)
            hi = lambda x, c=c, amp=amp, w=w: c + 0.6 + amp * np.cos(w * x) ** 2
            cells.append(CurvedCell(a, b, lo, hi))
    k = draw(st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4))

    def f(p):
        x, y = p[:, 0], p[:, 1]
        return k[0] + k[1] * x * y + np.exp(0.5 * k[2] * x) * np.cos(k[3] * y)

    tol = draw(st.sampled_from([1e-6, 1e-9, 1e-11]))
    return f, cells, tol


@settings(max_examples=60, deadline=None)
@given(cells_and_integrands())
def test_batched_cells_match_per_cell_reference(case):
    f, cells, tol = case
    calls = []
    capped = integrate_cells(f, cells, tol_abs=tol)
    # the rule's batch cap off: one call per refinement round
    with patch.dict(quadrature._RULE_PARTS, {2: 1 << 20}):
        got = integrate_cells(lambda p: calls.append(len(p)) or f(p), cells, tol_abs=tol)
        # the same driver one cell at a time, each with its share of the budget
        alone, rounds = [], []
        for cell in cells:
            mine = []
            alone.append(integrate_cells(lambda p: mine.append(1) or f(p), [cell],
                                         tol_abs=tol / len(cells)))
            rounds.append(len(mine))
    assert capped == got == (float(sum(v for v, _ in alone)), float(sum(e for _, e in alone)))
    # as many calls as the slowest cell needs rounds alone
    assert len(calls) == max(rounds)
    # the per-cell loop that the driver replaced adds each cell's rectangles in
    # another order, so it agrees only within its own error estimate
    ref, ref_err = ref_integrate_cells(f, cells, tol, 1e-10)
    assert abs(got[0] - ref) <= ref_err


@st.composite
def cell_batches(draw):
    """Cells, each with its own number of random sub-rectangles of its (x1, s)
    square, and a smooth f."""
    f, cells, _ = draw(cells_and_integrands())
    rects = []
    for cell in cells:
        n = draw(st.integers(1, 7))
        u = np.sort(np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=2 * n,
                                           max_size=2 * n))).reshape(n, 2), axis=1)
        s = np.sort(np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=2 * n,
                                           max_size=2 * n))).reshape(n, 2), axis=1)
        u = cell.a1 + (cell.b1 - cell.a1) * u
        rects.append(np.column_stack([u[:, 0], u[:, 1], s[:, 0], s[:, 1]]))
    return f, cells, rects


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cell_batches(), st.randoms(use_true_random=False))
def test_cell_kernel_is_bit_equal_to_the_per_cell_reference(case, rnd):
    # the kernel evaluates lo/hi once per x1 node and builds its nodes in
    # place; the reference repeats x1 over every node, one cell at a time.
    # The kernel's rectangles come shuffled across the cells.
    f, cells, rects = case
    row = np.repeat(np.arange(len(cells)), [len(r) for r in rects])
    order = np.arange(len(row))
    rnd.shuffle(order)
    ik, err = _cell_rect_values(f, cells, np.vstack(rects)[order], row[order])
    for i, (cell, rect) in enumerate(zip(cells, rects)):
        ref_ik, ref_err = ref_cell_tensor(f, cell, rect)
        mine = order[row[order] == i].argsort()
        assert np.array_equal(ik[row[order] == i][mine], ref_ik)
        assert np.array_equal(err[row[order] == i][mine], ref_err)


@st.composite
def signed_densities(draw, kinds=("1d", "close", "cantor", "2d")):
    """A density that changes sign, for integrate_abs: (f, cells, breaks, tol,
    the reference's cells and breaks, whether the plain np.abs route costs
    more).  The reference is the np.abs route with the crossings declared
    where that route would miss them.
    - a 1-D cubic, its sign flipped and doubled past a declared break, with
      roots apart from each other and from the break;
    - a 1-D cubic with two roots in one scan interval, which the plain route
      misses too;
    - a 1-D cubic times 0.2 plus the Cantor function, split at the
      construction's endpoints, at the Cantor files' TV tolerance;
    - a 2-D density that changes sign on a wavy graph, over the cells of a
      box with a curved edge; the tensor route bisecting toward the graph
      converged to values off by up to 5e-5 at tolerance 1e-8."""
    kind = draw(st.sampled_from(kinds))
    c = draw(st.sampled_from([1.0, -2.5]))
    if kind == "1d":
        s = draw(st.floats(-0.4, 0.4))
        roots = np.sort(draw(st.lists(st.floats(-0.95, 0.95), min_size=1, max_size=3)))
        roots = roots[np.concatenate([[True], np.diff(roots) > 0.07])]
        roots = roots[np.abs(roots - s) > 0.05]      # a root at the break makes no kink

        def f(p):
            x = p[:, 0]
            v = c * np.prod(x[:, None] - roots[None, :], axis=1)
            return np.where(x < s, v, -2.0 * v)
        cells = [(-1.0, s), (s, 1.0)]
        return f, cells, (), 1e-9, cells, (), len(roots) > 0
    if kind == "close":
        step = 2.0 / (ABS_SCAN_POINTS - 1)
        r = -1.0 + step * (draw(st.integers(3, 60)) + draw(st.floats(0.05, 0.5)))
        roots = [r, r + step * draw(st.floats(0.2, 0.45)), draw(st.floats(-0.95, 0.95))]

        def f(p):
            x = p[:, 0]
            return c * (x - roots[0]) * (x - roots[1]) * (x - roots[2])
        return f, [(-1.0, 1.0)], (), 1e-9, [(-1.0, 1.0)], roots, False
    if kind == "cantor":
        r = draw(st.floats(-0.2, 1.2))
        ends = construction_endpoints(MIDDLE_THIRDS, 8)

        def f(p):
            x = p[:, 0]
            return c * (x - r) * (0.2 + ifs_cdf(MIDDLE_THIRDS, x))
        return f, [(-0.25, 1.25)], ends, 3e-7, [(-0.25, 1.25)], ends, False
    a, b = draw(st.floats(-0.3, 0.3)), draw(st.floats(0.0, 0.3))
    w, phase = draw(st.floats(0.5, 4.0)), draw(st.floats(0.0, 6.3))

    def f(p):
        x, y = p[:, 0], p[:, 1]
        return c * (y - a - b * np.sin(w * x + phase)) * (1 + 0.2 * x + 0.1 * y)
    edge = GraphCurve(lambda x: 0.1 * x * x - 0.8, lambda x: 0.2 * x, -1.0, 1.0, label="edge")
    wave = GraphCurve(lambda x: a + b * np.sin(w * x + phase),
                      lambda x: b * w * np.cos(w * x + phase), -1.0, 1.0, label="wave")
    box = ((-1.0, 1.0), (-1.0, 1.0))
    return (f, box_cells(box, [RectifiableSet(2, pieces=[edge])]), (), 1e-9,
            box_cells(box, [RectifiableSet(2, pieces=[edge, wave])]), (), False)


@settings(max_examples=24, deadline=None, derandomize=True)
@given(signed_densities())
def test_abs_integral_matches_the_np_abs_route(case):
    """integrate_abs agrees with the reference within the TV tolerance, and
    where every crossing shows on the scan it evaluates f at fewer points
    than the plain np.abs route, which bisects toward each kink of |f|."""
    f, cells, breaks, tol, ref_cells, ref_breaks, cheaper = case
    count = [0]

    def counted(p):
        count[0] += len(p)
        return f(p)

    got = integrate_abs(counted, cells, tol, tol, breaks)
    ref, ref_count = abs_integral_reference(f, ref_cells, tol, tol, ref_breaks)
    assert abs(got - ref) <= tol + tol * abs(ref)
    if cheaper:
        assert count[0] < ref_count


@pytest.mark.parametrize("kind", ["1d", "close", "cantor", "2d"])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(data=st.data())
def test_breaks_at_abs_xtol_match_breaks_at_root_xtol(kind, data):
    """integrate_abs with its breaks solved to ABS_XTOL agrees with the same
    call solved to ROOT_XTOL within the TV tolerance."""
    f, cells, breaks, tol, *_ = data.draw(signed_densities((kind,)))
    got = integrate_abs(f, cells, tol, tol, breaks)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "ABS_XTOL", ROOT_XTOL)
        ref = integrate_abs(f, cells, tol, tol, breaks)
    assert abs(got - ref) <= tol + tol * abs(ref)


def test_polar_disc_area_and_half():
    val, _ = integrate_polar(lambda p: np.ones(len(p)), (0.3, -0.2), 0.5)
    assert abs(val - np.pi * 0.25) < 1e-10


def test_polar_radial_break_at_a_ring_kink():
    # |x - c| - (r - w), cut off at 0: a kink at rho = r - w, smooth on both sides
    c, r, w = (0.3, -0.2), 0.5, 0.02
    inner, outer = r - w, r + w
    f = lambda p: np.maximum(np.hypot(p[:, 0] - c[0], p[:, 1] - c[1]) - inner, 0.0)
    val, _ = integrate_polar(f, c, outer, tol_abs=1e-12, rho_breaks=(inner,))
    want = 2 * np.pi * ((outer ** 3 - inner ** 3) / 3 - inner * (outer ** 2 - inner ** 2) / 2)
    assert abs(val - want) < 1e-12


def test_polar_break_normalization():
    # discontinuity along the ray theta = -pi/4 must be split even though
    # the break angle is negative
    def f(p):
        return np.where(p[:, 1] > -p[:, 0], 1.0, 3.0)

    val, _ = integrate_polar(f, (0, 0), 1.0, theta_breaks=[-np.pi / 4, 3 * np.pi / 4])
    assert abs(val - (np.pi / 2) * (1 + 3)) < 1e-9


def test_to_upper_per_point_limits():
    up = np.array([0.5, -1.0, 2.0, 0.0])
    got = integrate_to_upper(np.cos, up)
    assert np.allclose(got, np.sin(up), atol=1e-13)


def test_to_upper_kinks():
    up = np.array([0.2, 1.7, -0.6])
    got = integrate_to_upper(lambda w: np.abs(w - 0.5), up, kinks=[0.5])
    ref = np.array([quad(lambda w: abs(w - 0.5), 0, u)[0] for u in up])
    assert np.allclose(got, ref, atol=1e-12)


def test_gauss_is_leggauss():
    for n in (4, 5, 8, 12, 16, 256):
        x, w = gauss(n)
        xr, wr = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(x, xr) and np.array_equal(w, wr)


# -- reference: one column at a time, each with its own doubling -----------

def ref_to_upper_order(g, upper, kinks, n):
    """The Gauss-n sum of every per-point range, each piece clipped from the
    kinks to [min(0, upper), max(0, upper)]; scalar-valued g only."""
    upper = np.asarray(upper, dtype=float)
    lo = np.minimum(0.0, upper)
    hi = np.maximum(0.0, upper)
    edges = np.array([-np.inf] + sorted(set(float(k) for k in kinks)) + [np.inf])
    x, w = np.polynomial.legendre.leggauss(n)
    acc = np.zeros_like(upper)
    for j in range(len(edges) - 1):
        c0 = np.clip(edges[j], lo, hi)
        c1 = np.clip(edges[j + 1], lo, hi)
        width = c1 - c0
        if np.all(width == 0):
            continue
        mid = 0.5 * (c0 + c1)
        hw = 0.5 * width
        for xi, wi in zip(x, w):
            acc += wi * hw * g(mid + hw * xi)
    return np.sign(upper) * acc


def ref_to_upper(g, upper, kinks=()):
    """Scalar-valued g only; returns (F, the Gauss order where each point
    stopped), each point doubling its order until it stabilizes."""
    compute = lambda n: ref_to_upper_order(g, upper, kinks, n)
    prev = compute(8)
    out, stop = np.zeros_like(prev), np.zeros(len(prev), dtype=int)
    n = 16
    while n <= 256:
        cur = compute(n)
        for i in range(len(cur)):
            if not stop[i] and abs(cur[i] - prev[i]) <= 1e-12 * max(abs(cur[i]), 1.0):
                out[i], stop[i] = cur[i], n
        if stop.all():
            return out, stop
        prev = cur
        n *= 2
    raise IntegrationError("parameter quadrature did not stabilize")


@st.composite
def two_column_integrands(draw):
    """Column 0 is piecewise cubic with kinks at the declared kinks (exact at
    order 8, so every point stops at 16); column 1 oscillates, and its
    points at -2.5 and 2.5 need 32 or more."""
    ups = draw(st.lists(st.floats(-2.5, 2.5), min_size=1, max_size=12))
    upper = np.array(ups + [0.0, -2.5, 2.5])
    inside = draw(st.lists(st.floats(-2.4, 2.4), max_size=2))
    outside = draw(st.one_of(st.floats(2.6, 5.0), st.floats(-5.0, -2.6)))
    kinks = inside + [outside]
    freq = draw(st.floats(15.0, 30.0))
    a = 1.0 + 0.1 * np.arange(len(upper))

    def g(w):
        col0 = sum(np.abs(w - k) for k in kinks) + a * w ** 3
        col1 = a * np.cos(freq * w)
        return np.column_stack([col0, col1])

    return g, upper, kinks


@settings(max_examples=100, deadline=None)
@given(two_column_integrands())
def test_to_upper_vector_matches_per_axis_reference(case):
    g, upper, kinks = case
    cols = [ref_to_upper(lambda w, ax=ax: g(w)[:, ax], upper, kinks) for ax in range(2)]
    assert (cols[0][1] == 16).all() and cols[1][1].max() >= 32
    got = integrate_to_upper(g, upper, kinks=kinks)
    assert got.shape == (len(upper), 2)
    assert np.array_equal(got, np.column_stack([c for c, _ in cols]))
    one = integrate_to_upper(lambda w: g(w)[:, 1], upper, kinks=kinks)
    assert one.shape == (len(upper),)
    assert np.array_equal(one, cols[1][0])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(upper=st.lists(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), min_size=1, max_size=9),
       kinks=st.lists(st.floats(-4.0, 4.0), max_size=3), n=st.sampled_from([1, 3, 8]),
       freq=st.floats(0.5, 4.0))
def test_to_upper_pieces_are_bit_equal_to_clipping_every_edge(upper, kinks, n, freq):
    # the open end pieces take [min(0, u), max(0, u)] as they stand instead of
    # clipping -inf and inf; the declared degree 2n - 1 runs the one order n
    g = lambda w: np.cos(freq * w) + sum(np.abs(w - k) for k in kinks)
    got = integrate_to_upper(g, np.array(upper), kinks=kinks, degree=2 * n - 1)
    assert np.array_equal(got, ref_to_upper_order(g, upper, kinks, n))


def test_to_upper_zero_limits_never_call_the_integrand():
    def g(w):
        raise AssertionError("integrand called")

    got = integrate_to_upper(g, np.zeros(3), kinks=[0.5])
    assert got.shape == (3,) and np.all(got == 0)
    dom = box_domain((-1.0, 1.0), (-1.0, 1.0))
    field = ParamField(dom, lambda pts, t: np.column_stack([pts[:, 0] * t, pts[:, 1] + t]),
                       sup_bound=4.0)
    pts = np.array([[0.2, -0.3], [0.5, 0.1], [-0.7, 0.9]])
    prim = PrimitiveField(field)
    zero = prim.value(pts, 0.0)
    assert zero.shape == (3, 2) and np.all(zero == 0)
    # \\int_0^1 (x1 w, x2 + w) dw = (x1 / 2, x2 + 1/2)
    ref = np.column_stack([0.5 * pts[:, 0], pts[:, 1] + 0.5])
    assert np.allclose(prim.value(pts, 1.0), ref, atol=1e-13)


# -- finiteness guards ---------------------------------------------------

def _named_abscissa(exc):
    m = re.fullmatch(r"non-finite integrand at \(?([^()]*)\)?", str(exc.value))
    assert m, str(exc.value)
    return [float(v) for v in m.group(1).split(", ")]


def test_to_upper_non_finite_raises_at_first_order():
    calls = []

    def g(w):
        calls.append(1)
        return np.where(w < 0.5, np.nan, w)

    with pytest.raises(IntegrationError) as exc:
        integrate_to_upper(g, np.array([1.0, 2.0]))
    [w] = _named_abscissa(exc)
    assert 0.0 <= w < 0.5
    assert len(calls) <= 16   # order 8 plus the search on the failure path


def test_1d_non_finite_names_the_abscissa():
    with pytest.raises(IntegrationError) as exc:
        integrate_1d(lambda x: np.where(x > 0.3, np.inf, x), -1.0, 1.0)
    [x] = _named_abscissa(exc)
    assert 0.3 < x <= 1.0


def test_cell_non_finite_names_the_point():
    cell = CurvedCell(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(IntegrationError) as exc:
        integrate_cells(lambda p: np.where(p[:, 0] > 0.5, np.nan, 1.0), [cell])
    x1, x2 = _named_abscissa(exc)
    assert 0.5 < x1 <= 1.0 and 0.0 <= x2 <= 1.0


# -- the primitive B with a known degree in t ----------------------------

def _field_from_text(field_lines, dim=1, singular=""):
    """A ParamField built the way a scenario file builds it."""
    domain = "-1 .. 1" if dim == 1 else "-1 .. 1; -1 .. 1"
    raw = parse_text(f"[scenario]\nid = gen\ndim = {dim}\ndomain = {domain}\n"
                     f"experiments = chain\n{singular}\n[field]\nM = 1\n{field_lines}\n")
    dom = build_domain(raw)
    return build_field(raw, dom, build_singular(raw, dom), MIDDLE_THIRDS)


@pytest.mark.parametrize("lines,singular,degree", [
    ("b = t*x1\ndiva = 1 + t^3", "", 3),
    ("b = t*x1\ndiva = exp(t)", "", None),
    ("b = t*Cantor(x1)\ndivc_mass = 1\ndivc_multiplier = 1 + t^4", "", 4),
    ("b = t*Cantor(x1)\ndivc_mass = 1\ndivc_multiplier = sign(t)", "", None),
    ("b = sign(x1)*t\nb_plus = t^3\nb_minus = -t", "[singular]\npoints = 0 : +1", 3),
    ("b = sign(x1)*t\nb_plus = t\nb_minus = -abs(t)", "[singular]\npoints = 0 : +1", None),
    ("b = t*sign(x1)\ng1 = exp(x1)", "", 1),
])
def test_t_degree_covers_every_expression_the_primitive_integrates(lines, singular, degree):
    assert _field_from_text(lines, singular=singular).t_degree == degree


@st.composite
def poly_in_t_fields(draw):
    """b = sum_j c_j (t/4)^j X_j per component: degree 0 to 8 in t, with
    x-factors sign, identity and Cantor; each term is at most 1 in size on
    t in [-4, 4], so rounding stays far below the comparison tolerance."""
    dim = draw(st.sampled_from([1, 2]))
    factors = ["sign(x1)", "x1", "Cantor(x1)", "1"] + (["x2", "sign(x2)"] if dim == 2 else [])
    degree = draw(st.integers(0, 8))
    comps = []
    for ax in range(dim):
        top = degree if ax == 0 else draw(st.integers(0, degree))
        terms = [f"{draw(st.floats(-1, 1)):.17g}*(t/4)^{j}*{draw(st.sampled_from(factors))}"
                 for j in range(top + 1)]
        comps.append(" + ".join(terms))
    kinks = draw(st.lists(st.floats(-3.9, 3.9), max_size=2))
    lines = f"b = {', '.join(comps)}"
    if kinks:
        lines += "\nt_kinks = " + ", ".join(f"{k:.17g}" for k in kinks)
    n = draw(st.integers(1, 6))
    pts = np.array(draw(st.lists(st.lists(st.floats(-1, 1), min_size=dim, max_size=dim),
                                 min_size=n, max_size=n)))
    upper = np.array(draw(st.lists(st.floats(-4, 4), min_size=n, max_size=n)))
    return _field_from_text(lines, dim), degree, pts, upper


@settings(max_examples=80, deadline=None)
@given(poly_in_t_fields())
def test_primitive_exact_order_matches_doubling(case):
    field, degree, pts, upper = case
    assert field.t_degree == degree
    exact = PrimitiveField(field).value(pts, upper)
    field.t_degree = None
    ref = PrimitiveField(field).value(pts, upper)
    assert exact.shape == ref.shape == pts.shape
    assert np.all(np.abs(exact - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


MIXED_SIGNS = [-3.0, 0.25, 2.0, 0.0]


@pytest.mark.parametrize("b,kinks,upper", [
    ("sign(t-0.3)*x1", [0.3], MIXED_SIGNS),
    ("exp(t)*x1", [], MIXED_SIGNS),
    ("t^0.5*x1", [], [3.0, 0.25, 0.0, 1.0]),     # NaN below 0; does not stabilize
    ("H(t)*sign(x1)", [], MIXED_SIGNS),
    ("min(t, 1)*x1", [1.0], MIXED_SIGNS),
])
def test_primitive_of_non_polynomial_field_keeps_the_doubling_rule(b, kinks, upper):
    field = _field_from_text(f"b = {b}" + (f"\nt_kinks = {kinks[0]}" if kinks else ""))
    assert field.t_degree is None
    pts = np.array([[-0.7], [0.2], [0.9], [0.5]])
    upper = np.array(upper)

    def outcome(fn):
        try:
            return fn()
        except IntegrationError as exc:
            return str(exc)

    got = outcome(lambda: PrimitiveField(field).value(pts, upper))
    ref = outcome(lambda: ref_to_upper(lambda w: field.eval(pts, w)[:, 0], upper, kinks)[0])
    ref = ref if isinstance(ref, str) else ref[:, None]
    if isinstance(ref, str):
        assert got == ref
    else:
        assert np.array_equal(got, ref)


def _counting_eval(field):
    calls = []
    inner = field._eval

    def counted(pts, t):
        calls.append(1)
        return inner(pts, t)

    field._eval = counted
    return calls


def test_flipped_keeps_t_degree_and_the_exact_rule(dom11):
    field = _field_from_text("b = sign(x1)*(1 + t^2)\nb_plus = 1 + t^2\nb_minus = -(1 + t^2)",
                             singular="[singular]\npoints = 0 : +1")
    assert field.t_degree == 2
    calls = _counting_eval(field)
    flipped = field.flipped()
    assert flipped.t_degree == 2
    pts = np.array([[-0.5], [0.5]])
    got = PrimitiveField(flipped).value(pts, np.array([1.5, -2.0]))
    assert len(calls) == 2                   # Gauss-2, one call per node
    assert np.allclose(got[:, 0], [-(1.5 + 1.5 ** 3 / 3), -2.0 - 8.0 / 3.0], rtol=1e-15)
    # the traces go through the same rule: (1 + w^2) integrated from 0 to 1
    assert PrimitiveField(flipped).plus(pts[:1], 1.0)[0, 0] == pytest.approx(-4.0 / 3.0,
                                                                             rel=1e-15)
    # a field built from lambdas has no known degree and doubles from 8 to 16
    lam = ParamField(dom11, lambda pts, t: (pts[:, 0] * t)[:, None], sup_bound=1.0)
    assert lam.t_degree is None and lam.flipped().t_degree is None
    calls = _counting_eval(lam)
    PrimitiveField(lam).value(pts, 1.0)
    assert len(calls) == 8 + 16


def test_to_upper_degree_picks_one_exact_order():
    calls = []

    def g(w):
        calls.append(len(w))
        return 3 * w ** 5 - w ** 2 + 1

    upper = np.array([-1.5, 0.5, 2.0])
    got = integrate_to_upper(g, upper, degree=5)
    assert len(calls) == 3                   # ceil(6 / 2) nodes
    assert np.allclose(got, 0.5 * upper ** 6 - upper ** 3 / 3 + upper, rtol=1e-14, atol=0)
    # a degree no rule up to order 256 integrates exactly takes the doubling path
    calls.clear()
    assert np.allclose(integrate_to_upper(g, upper, degree=10 ** 12), got, rtol=1e-14)
    assert len(calls) == 8 + 16

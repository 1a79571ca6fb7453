import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from divchain import BVFunction, Piece, RectifiableSet, Segment, plateau_bump
from divchain.bvfunc import SCAN_POINTS
from divchain.cantor import MIDDLE_THIRDS, CantorPart
from divchain.errors import DegenerateLevelError, GeometryError, NotOnJumpSetError
from divchain.quadrature import integrate_1d

from conftest import ONES, ZEROS
from helpers import box_domain, eval_reference, grad_reference, interval_domain, traces_at


def test_traces_heaviside(heaviside):
    assert traces_at(heaviside, [0.0]) == (1.0, 0.0)


def test_traces_2d_vertical():
    dom = box_domain((-1, 1), (-1, 1))
    J = RectifiableSet(2, pieces=[Segment(0, 0.0, -1, 1, +1)])
    u = BVFunction(
        dom,
        [Piece(lambda p: p[:, 0] < 0, lambda p: np.zeros(len(p)),
               lambda p: np.zeros((len(p), 2))),
         Piece(lambda p: p[:, 0] >= 0, lambda p: np.ones(len(p)),
               lambda p: np.zeros((len(p), 2)))],
        J, u_plus=lambda p: np.ones(len(p)), u_minus=lambda p: np.zeros(len(p)))
    assert traces_at(u, [0.0, 0.3]) == (1.0, 0.0)
    assert all(ok for _, ok in u.validate())


def test_continuous_function_has_no_traces(dom11):
    absx = BVFunction.piecewise_1d(dom11, [], values=[np.abs], grads=[np.sign])
    with pytest.raises(NotOnJumpSetError):
        traces_at(absx, [0.0])


def test_precise_representative(heaviside):
    assert heaviside.precise_rep([[0.0]])[0] == pytest.approx(0.5)
    assert heaviside.precise_rep([[0.3]])[0] == pytest.approx(1.0)
    smooth = BVFunction.piecewise_1d(interval_domain(-1, 1), [],
                                     values=[lambda x: x ** 2], grads=[lambda x: 2 * x])
    assert smooth.precise_rep([[0.4]])[0] == pytest.approx(0.16)


def test_derivative_heaviside_is_dirac(heaviside, bump_center):
    Du = heaviside.derivative()[0]
    assert Du.apply(bump_center) == pytest.approx(1.0)


def test_derivative_cantor_function():
    dom = interval_domain(-0.5, 1.5)
    u = BVFunction.piecewise_1d(dom, [], values=[ZEROS], grads=[ZEROS],
                                cantor=CantorPart(MIDDLE_THIRDS, 1.0))
    Du = u.derivative()[0]
    assert Du.total_variation() == pytest.approx(1.0)
    assert Du.apply_function(lambda p: p[:, 0]) == pytest.approx(0.5, abs=1e-9)


def test_derivative_abs(dom11):
    absx = BVFunction.piecewise_1d(dom11, [], values=[np.abs], grads=[np.sign])
    assert absx.derivative()[0].total_variation() == pytest.approx(2.0, abs=1e-9)


def test_monotone_tv_equals_increment(dom11):
    u = BVFunction.piecewise_1d(dom11, [], values=[lambda x: x ** 3],
                                grads=[lambda x: 3 * x ** 2])
    assert u.derivative()[0].total_variation() == pytest.approx(2.0, abs=1e-8)


def test_gauss_green_closure(dom11, heaviside, bump_center):
    # <Du, phi> = -int u phi' dx: the defining property, oracle-checked
    for u in (heaviside,
              BVFunction.piecewise_1d(dom11, [], values=[lambda x: x ** 2],
                                      grads=[lambda x: 2 * x])):
        Du = u.derivative()[0]
        lhs = Du.apply(bump_center)
        rhs, _ = integrate_1d(
            lambda x: -u.eval(x[:, None]) * bump_center.gradient(x[:, None])[:, 0],
            -1, 1, breakpoints=[0.0], tol_abs=1e-12)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_derivative_linearity(dom11, bump_center):
    jumpy = BVFunction.piecewise_1d(dom11, [0.0], values=[ZEROS, ONES],
                                    grads=[ZEROS, ZEROS])
    smooth = BVFunction.piecewise_1d(dom11, [], values=[lambda x: x ** 2],
                                     grads=[lambda x: 2 * x])
    combined = BVFunction.piecewise_1d(
        dom11, [0.0],
        values=[lambda x: x ** 2, lambda x: 1 + x ** 2],
        grads=[lambda x: 2 * x, lambda x: 2 * x])
    lhs = combined.derivative()[0].apply(bump_center)
    rhs = jumpy.derivative()[0].apply(bump_center) \
        + smooth.derivative()[0].apply(bump_center)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_level_region(heaviside):
    lr = heaviside.level_region(0.5)
    assert lr.chi_star([[0.0]])[0] == pytest.approx(0.5)
    assert lr.chi([[0.3]])[0] == 1.0 and lr.chi([[-0.3]])[0] == 0.0
    const2 = BVFunction.piecewise_1d(interval_domain(-1, 1), [],
                                     values=[lambda x: 2 * np.ones_like(x)],
                                     grads=[ZEROS])
    assert np.all(const2.level_region(1.0).chi_star(const2.domain.grid(11)) == 1.0)
    assert np.all(heaviside.level_region(2.0).chi(heaviside.domain.grid(11)) == 0.0)


def test_level_zero_rejected(heaviside):
    with pytest.raises(DegenerateLevelError):
        heaviside.level_region(0.0)


# Reference: the level-set scan before u's grid table was kept on the
# BVFunction and its brackets were solved together.  It evaluates u on the
# grid for every level and runs scipy's brentq on every bracket in turn.

def ref_breakpoints_1d(region, n_scan=801):
    (lo, hi), = region.u.domain.bounds
    xs = np.linspace(lo, hi, n_scan)
    vals = region.u.eval(xs[:, None]) - region.t
    out = list(region.u.jump_set.points_1d)
    sgn = np.sign(vals)
    for i in range(n_scan - 1):
        if sgn[i] == 0.0:
            out.append(xs[i])
        elif sgn[i] * sgn[i + 1] < 0:
            try:
                out.append(brentq(lambda x: float(region.u.eval(np.array([[x]]))[0]) - region.t,
                                  xs[i], xs[i + 1], xtol=1e-14))
            except ValueError:
                pass
    if sgn[-1] == 0.0:
        out.append(xs[-1])
    return sorted(out)


def _poly(c):
    return (lambda x: np.polyval(c, x)), (lambda x: np.polyval(np.polyder(c), x))


def piecewise(lo, hi, breaks, coefs, amplitude):
    """u on [lo, hi]: one polynomial (np.polyval coefficients) between each two
    breaks, plus amplitude times the Cantor function when amplitude is not 0."""
    values, grads = zip(*(_poly(c) for c in coefs))
    cantor = CantorPart(MIDDLE_THIRDS, amplitude) if amplitude else None
    return BVFunction.piecewise_1d(interval_domain(lo, hi), breaks, values=list(values),
                                   grads=list(grads), cantor=cantor, sup_bound=1e3)


@st.composite
def piecewise_poly(draw):
    """Random piecewise-linear or -quadratic u, with 0 to 3 jumps and, one
    time in three, a Cantor summand."""
    lo = draw(st.sampled_from([-1.0, -2.0, 0.0, -0.3]))
    hi = lo + draw(st.sampled_from([1.0, 2.0, 3.5]))
    breaks = sorted(set(draw(st.lists(st.floats(lo + 0.01, hi - 0.01), max_size=3))))
    degree = draw(st.sampled_from([1, 2]))
    coef = st.one_of(st.sampled_from([0.0, 0.5, -1.0, 2.0]), st.floats(-3, 3))
    coefs = [draw(st.lists(coef, min_size=degree + 1, max_size=degree + 1))
             for _ in range(len(breaks) + 1)]
    amplitude = draw(st.sampled_from([0.0, 0.0, 0.25, 0.0, 0.0, -1.0]))
    return piecewise(lo, hi, breaks, coefs, amplitude)


def crosses(u, t, x, tol):
    """u - t takes both signs, or 0, on 201 points within tol of x."""
    vals = u.eval((x + tol * np.linspace(-1.0, 1.0, 201))[:, None]) - t
    return vals.min() <= 0.0 <= vals.max()


@settings(max_examples=150, deadline=None)
@given(piecewise_poly(), st.lists(st.one_of(st.floats(-4, 4), st.integers(0, SCAN_POINTS - 1),
                                            st.just(SCAN_POINTS - 1)),
                                  min_size=1, max_size=4))
# two scan intervals where the two solvers stop at different crossings of u - t:
# rounding noise near the double root of 0.5 (x - 1)^2 at the level u(0), and
# a Cantor staircase crossing the level 2^-5 several times near x = 0.988
@example(piecewise(0.0, 1.0, [0.5, 0.75],
                   [[0.0, 0.0, 7.718876329819288e-94], [0.0, 0.0, 0.0], [0.5, -1.0, 0.5]], 0.0),
         [0])
@example(piecewise(-1.0, 1.0, [0.0], [[0.0, 0.0], [2.0, -1.0]], -1.0), [0.03125])
# a level just below 0, where u - t on the left of the jump is 5e-324
@example(piecewise(-1.0, 2.5, [0.0], [[0.0, 0.0], [0.0, -1.0]], 0.0), [-5e-324])
def test_breakpoints_match_reference_loop(u, levels):
    (lo, hi), = u.domain.bounds
    xs = np.linspace(lo, hi, SCAN_POINTS)
    grid = u.eval(xs[:, None])
    # an integer picks the level equal to u at that grid point
    ts = [float(grid[v]) if isinstance(v, int) else v for v in levels]
    assume(all(t != 0.0 for t in ts))
    for t in ts:
        region = u.level_region(t)
        try:
            want = ref_breakpoints_1d(region)
        except RuntimeError:        # brentq did not converge: no reference to compare
            continue
        got = region.breakpoints_1d()
        assert len(got) == len(want)
        for g, w in zip(got, want):
            tol = 2e-14 * max(1.0, abs(w))
            # where a scan interval holds several crossings, or rounding noise
            # near a multiple root, either solver may stop at any of them: a
            # different root must lie in the reference root's scan interval
            # and cross the level within the same tolerance
            assert abs(g - w) <= tol or (
                np.searchsorted(xs, g) == np.searchsorted(xs, w) and crosses(u, t, g, tol))


def test_scan_grid_is_evaluated_once_per_function(dom11):
    u = BVFunction.piecewise_1d(dom11, [0.0], values=[lambda x: x - 0.5, lambda x: 2 * x * x],
                                grads=[ONES, lambda x: 4 * x])
    inner = u.eval
    sizes = []

    def counting(pts):
        sizes.append(len(np.asarray(pts)))
        return inner(pts)

    u.eval = counting
    levels = (-0.7, -0.2, 0.3, 1.1, 0.3, 2.0)
    got = [u.level_region(t).breakpoints_1d() for t in levels]
    assert sizes.count(SCAN_POINTS) == 1
    # the rest are solver steps, one point for each bracket of a level
    assert set(sizes) - {SCAN_POINTS} <= {1, 2}
    for g, t in zip(got, levels):
        want = ref_breakpoints_1d(u.level_region(t))
        assert len(g) == len(want)
        assert all(abs(x - w) <= 2e-14 * max(1.0, abs(w)) for x, w in zip(g, want))
    assert got[0] == pytest.approx([-0.2, 0.0]) and got[2] == pytest.approx([0.0, np.sqrt(0.15)])


# Differential test of the piece selection behind eval and grad: it takes
# the first piece's values as they stand when that piece covers every point
# with no NaN, and otherwise runs the masked loop kept in tests/helpers.py.

COEF = st.floats(-2, 2, allow_nan=False)
CUT = st.floats(-1.2, 1.2, allow_nan=False)


@st.composite
def piecewise_functions(draw):
    """A 1-D or 2-D function of 1-3 quadratic pieces and the points to evaluate.

    A piece covers everything or a half-space {x_axis < cut}; its value and
    one column of its gradient may be NaN where x_1 > a cut of their own."""
    dim = draw(st.integers(1, 2))
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        c0, cxx = draw(COEF), draw(COEF)
        cx = np.array([draw(COEF) for _ in range(dim)])
        whole, axis, cut = draw(st.booleans()), draw(st.integers(0, dim - 1)), draw(CUT)
        vcut, gcut = draw(st.none() | CUT), draw(st.none() | CUT)
        gcol = draw(st.integers(0, dim - 1))

        def indicator(p, whole=whole, axis=axis, cut=cut):
            return np.ones(len(p), dtype=bool) if whole else p[:, axis] < cut

        def value(p, c0=c0, cx=cx, cxx=cxx, vcut=vcut):
            out = c0 + p @ cx + cxx * np.sum(p * p, axis=1)
            return out if vcut is None else np.where(p[:, 0] > vcut, np.nan, out)

        def grad(p, cx=cx, cxx=cxx, gcut=gcut, gcol=gcol):
            out = cx + 2 * cxx * p
            if gcut is not None:
                out[p[:, 0] > gcut, gcol] = np.nan
            return out

        pieces.append(Piece(indicator, value, grad))
    dom = interval_domain(-1, 1) if dim == 1 else box_domain((-1, 1), (-1, 1))
    n = draw(st.integers(0, 12))
    pts = np.array(draw(st.lists(st.floats(-1, 1), min_size=n * dim, max_size=n * dim)),
                   dtype=float).reshape(n, dim)
    return BVFunction(dom, pieces, sup_bound=1.0), pts


def _outcome(fn, u, pts):
    try:
        return fn(u, pts)
    except GeometryError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(piecewise_functions())
def test_piece_selection_matches_masked_loop(case):
    u, pts = case
    for fast, ref in ((BVFunction.eval, eval_reference), (BVFunction.grad, grad_reference)):
        got, want = _outcome(fast, u, pts), _outcome(ref, u, pts)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

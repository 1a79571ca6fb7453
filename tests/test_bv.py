import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from divchain import BVFunction, Domain, Piece, RectifiableSet, VerticalSegment, plateau_bump
from divchain.bvfunc import SCAN_POINTS
from divchain.cantor import MIDDLE_THIRDS, CantorPart
from divchain.errors import DegenerateLevelError, NotOnJumpSetError
from divchain.quadrature import integrate_1d

from conftest import ONES, ZEROS


def test_traces_heaviside(heaviside):
    assert heaviside.traces_at([0.0]) == (1.0, 0.0)


def test_traces_2d_vertical():
    dom = Domain.box((-1, 1), (-1, 1))
    J = RectifiableSet(2, curves=[VerticalSegment(0.0, -1, 1, +1)])
    u = BVFunction(
        dom,
        [Piece(lambda p: p[:, 0] < 0, lambda p: np.zeros(len(p)),
               lambda p: np.zeros((len(p), 2))),
         Piece(lambda p: p[:, 0] >= 0, lambda p: np.ones(len(p)),
               lambda p: np.zeros((len(p), 2)))],
        J, u_plus=lambda p: np.ones(len(p)), u_minus=lambda p: np.zeros(len(p)))
    assert u.traces_at([0.0, 0.3]) == (1.0, 0.0)
    assert all(ok for _, ok in u.validate())


def test_continuous_function_has_no_traces(dom11):
    absx = BVFunction.piecewise_1d(dom11, [], values=[np.abs], grads=[np.sign])
    with pytest.raises(NotOnJumpSetError):
        absx.traces_at([0.0])


def test_precise_representative(heaviside):
    assert heaviside.precise_rep([[0.0]])[0] == pytest.approx(0.5)
    assert heaviside.precise_rep([[0.3]])[0] == pytest.approx(1.0)
    smooth = BVFunction.piecewise_1d(Domain.interval(-1, 1), [],
                                     values=[lambda x: x ** 2], grads=[lambda x: 2 * x])
    assert smooth.precise_rep([[0.4]])[0] == pytest.approx(0.16)


def test_derivative_heaviside_is_dirac(heaviside, bump_center):
    Du = heaviside.derivative()[0]
    assert Du.apply(bump_center) == pytest.approx(1.0)


def test_derivative_cantor_function():
    dom = Domain.interval(-0.5, 1.5)
    u = BVFunction.piecewise_1d(dom, [], values=[ZEROS], grads=[ZEROS],
                                cantor=CantorPart(MIDDLE_THIRDS, 1.0),
                                cantor_amplitude=1.0)
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
    const2 = BVFunction.piecewise_1d(Domain.interval(-1, 1), [],
                                     values=[lambda x: 2 * np.ones_like(x)],
                                     grads=[ZEROS])
    assert np.all(const2.level_region(1.0).chi_star(const2.domain.grid(11)) == 1.0)
    assert np.all(heaviside.level_region(2.0).chi(heaviside.domain.grid(11)) == 0.0)


def test_level_zero_rejected(heaviside):
    with pytest.raises(DegenerateLevelError):
        heaviside.level_region(0.0)


def test_trace_oscillation_decays(dom11):
    u = BVFunction.piecewise_1d(dom11, [0.0],
                                values=[lambda x: x, lambda x: 1 + x],
                                grads=[ONES, ONES])
    rows = u.trace_oscillation([0.0], radii=(1e-2, 1e-3))
    # mean oscillation over half-balls shrinks with the radius
    assert rows[1][1] < rows[0][1] + 1e-12
    assert rows[1][2] < rows[0][2] + 1e-12
    assert rows[1][1] < 1e-2


# Reference: the level-set scan before u's grid table was kept on the
# BVFunction.  It evaluates u on the grid for every level and walks every
# bracket in Python.

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


@st.composite
def piecewise_poly(draw):
    """Random piecewise-linear or -quadratic u, with 0 to 3 jumps."""
    lo = draw(st.sampled_from([-1.0, -2.0, 0.0, -0.3]))
    hi = lo + draw(st.sampled_from([1.0, 2.0, 3.5]))
    breaks = sorted(set(draw(st.lists(st.floats(lo + 0.01, hi - 0.01), max_size=3))))
    degree = draw(st.sampled_from([1, 2]))
    coef = st.one_of(st.sampled_from([0.0, 0.5, -1.0, 2.0]), st.floats(-3, 3))
    values, grads = zip(*(_poly(draw(st.lists(coef, min_size=degree + 1, max_size=degree + 1)))
                          for _ in range(len(breaks) + 1)))
    return BVFunction.piecewise_1d(Domain.interval(lo, hi), breaks, values=list(values),
                                   grads=list(grads), sup_bound=1e3)


def _outcome(scan):
    # the crossings, or the type of error (brentq can fail to converge)
    try:
        return scan()
    except RuntimeError as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(piecewise_poly(), st.lists(st.one_of(st.floats(-4, 4), st.integers(0, SCAN_POINTS - 1),
                                            st.just(SCAN_POINTS - 1)),
                                  min_size=1, max_size=4))
def test_breakpoints_match_reference_loop(u, levels):
    (lo, hi), = u.domain.bounds
    grid = u.eval(np.linspace(lo, hi, SCAN_POINTS)[:, None])
    # an integer picks the level equal to u at that grid point
    ts = [float(grid[v]) if isinstance(v, int) else v for v in levels]
    assume(all(t != 0.0 for t in ts))
    for t in ts:
        region = u.level_region(t)
        assert _outcome(region.breakpoints_1d) == _outcome(lambda: ref_breakpoints_1d(region))


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
    assert set(sizes) == {1, SCAN_POINTS}          # the rest are brentq probes
    assert got == [ref_breakpoints_1d(u.level_region(t)) for t in levels]
    assert got[0] == pytest.approx([-0.2, 0.0]) and got[2] == pytest.approx([0.0, np.sqrt(0.15)])

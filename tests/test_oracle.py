import functools
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from divchain import (RadonMeasure, RectifiableSet, build_suite, compare,
                      mollification_study, oscillatory_bump, plateau_bump, weak_divergence)
from divchain.cantor import IFSSpec
from divchain.chainrule import IDENTITY, ScalarFunction, product_rule
from divchain.errors import GeometryError, IntegrationError
from divchain.oracle import CANTOR_DEPTH, cantor_breaks
from divchain.quadrature import integrate_cells
from divchain.rectifiable import GraphCurve, box_cells

from divchain.cli import bundled_dir

from conftest import sign_field
from helpers import (apply_reference, box_domain, check_gradient, interval_domain, lebesgue,
                     point_mass, product_rule_reference, total_variation_reference,
                     weak_divergence_reference)


def test_weak_divergence_of_x(dom11, bump_center):
    # Div(x) = dx, so -int phi' x = int phi
    val, _ = weak_divergence(lambda pts: pts[:, 0][:, None], bump_center, dom11,
                             RectifiableSet.empty(1), tol_abs=1e-11, tol_rel=1e-11)
    ref = lebesgue(dom11).apply(bump_center)
    assert val == pytest.approx(ref, abs=1e-9)


def test_weak_divergence_of_heaviside(dom11, point_zero, bump_center):
    v = lambda pts: (pts[:, 0] > 0).astype(float)[:, None]
    val, _ = weak_divergence(v, bump_center, dom11, point_zero,
                             tol_abs=1e-11, tol_rel=1e-11)
    assert val == pytest.approx(float(bump_center.value(np.array([[0.0]]))[0]),
                                abs=1e-9)


def test_weak_divergence_cross_refinement(dom11, point_zero, bump_center):
    # v = sign(x) sin(H(x)): Div v = sin(1) delta_0; three refinement levels
    def v(pts):
        h = (pts[:, 0] > 0).astype(float)
        return (np.sign(pts[:, 0]) * np.sin(h))[:, None]

    vals = [weak_divergence(v, bump_center, dom11, point_zero, tol_abs=tol,
                            tol_rel=tol)[0]
            for tol in (1e-8, 1e-10, 1e-12)]
    assert vals[0] == pytest.approx(np.sin(1.0), abs=1e-7)
    assert abs(vals[2] - vals[1]) <= abs(vals[1] - vals[0]) + 1e-12
    assert vals[2] == pytest.approx(np.sin(1.0), abs=1e-10)


def test_suite_invariants(dom11, point_zero):
    suite = build_suite(dom11, point_zero)
    assert len(suite) >= 20
    straddling = 0
    for phi in suite:
        (lo, hi), = phi.support_box
        if lo < 0.0 < hi:
            straddling += 1
    assert straddling >= 3
    for phi in suite:
        assert check_gradient(phi)


def test_compare_passes_on_consistent_pair(dom11, point_zero, bump_center):
    suite = build_suite(dom11, point_zero)
    mu = point_mass(dom11, 0.0, 1.0)
    v = lambda pts: (pts[:, 0] > 0).astype(float)[:, None]
    rep = compare(mu, v, suite)
    assert rep["pass"] and rep["max_difference"] < 1e-9


def test_compare_zero_measure_constant_field(dom11):
    suite = build_suite(dom11, RectifiableSet.empty(1))
    rep = compare(RadonMeasure.zero(dom11),
                  lambda pts: np.full((len(pts), 1), 0.7), suite)
    assert rep["pass"]


def test_compare_negative_control(dom11, point_zero):
    # mu = delta_0 against v = 0 must fail with difference phi(0)
    suite = build_suite(dom11, point_zero)
    mu = point_mass(dom11, 0.0, 1.0)
    rep = compare(mu, lambda pts: np.zeros((len(pts), 1)), suite)
    assert not rep["pass"]
    assert rep["max_difference"] > 0.5


def test_mollification_study(dom11, point_zero):
    b = sign_field(dom11, point_zero)
    rep = mollification_study(b, 1.0, [0.0], [0.1, 0.05, 0.025])
    assert rep["nonincreasing_tail"]
    assert all(r["deviation"] < 1e-12 for r in rep["rows"])
    with pytest.raises(ValueError):
        mollification_study(b, 1.0, [0.0], [0.05, 0.1])


@st.composite
def bumps(draw, dim):
    """A plateau or oscillatory bump with a generated support and plateau."""
    support, plateau = [], []
    for _ in range(dim):
        a = draw(st.floats(-0.95, 0.6))
        b = draw(st.floats(a + 0.2, 0.95))
        f1 = draw(st.floats(0.05, 0.85))
        f2 = draw(st.floats(f1 + 0.05, 0.95))
        support.append((a, b))
        plateau.append((a + f1 * (b - a), a + f2 * (b - a)))
    if draw(st.booleans()):
        return plateau_bump(support, plateau)
    k = draw(st.lists(st.floats(-8.0, 8.0), min_size=dim, max_size=dim))
    return oscillatory_bump(support, plateau, k)


def _piecewise_gauss(f, box, breaks, order=40):
    """Fixed-order Gauss-Legendre product rule on the boxes between the breaks."""
    x, w = np.polynomial.legendre.leggauss(order)
    axes = []
    for (lo, hi), br in zip(box, breaks):
        edges = np.array([lo, *br, hi])
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
        axes.append(((mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()))
    if len(axes) == 1:
        (xs, ws), = axes
        return float(f(xs[:, None]) @ ws)
    (xs, wx), (ys, wy) = axes
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return float(wx @ f(np.column_stack([X.ravel(), Y.ravel()])).reshape(X.shape) @ wy)


def _breaks_keep_the_values(phi, c, tol):
    """weak_divergence and RadonMeasure.apply with phi's breaks against a
    fixed-order rule on the pieces, where every integrand is smooth.

    The same adaptive rule without the breaks is no reference: its error
    estimate misjudges the plateau edges (on a generated 1-D bump it reported
    8e-14 at tol 1e-12 and missed by 1e-7).
    """
    dim = phi.dim
    dom = interval_domain(-1.0, 1.0) if dim == 1 else box_domain((-1.0, 1.0), (-1.0, 1.0))
    assert all(len(b) == 2 for b in phi.breaks)

    def v(p):
        return np.column_stack([np.sin(c[0] * p[:, 0]) + c[1] * p[:, -1],
                                np.cos(c[2] * p[:, 0] * p[:, -1])])[:, :dim]

    def ac(p):
        return np.exp(c[0] * p[:, 0]) * np.cos(c[1] * p[:, -1])

    val, _ = weak_divergence(v, phi, dom, RectifiableSet.empty(dom.dim), tol_abs=tol)
    ref = _piecewise_gauss(lambda p: -np.einsum("ij,ij->i", phi.gradient(p), v(p)),
                           phi.support_box, phi.breaks)
    assert abs(val - ref) <= 2 * tol
    val = RadonMeasure(dom, ac=ac).apply(phi, tol_abs=tol)
    ref = _piecewise_gauss(lambda p: phi.value(p) * ac(p), phi.support_box, phi.breaks)
    assert abs(val - ref) <= 2 * tol


@settings(max_examples=60, deadline=None)
@given(bumps(1), st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_breaks_keep_the_values_1d(phi, c):
    _breaks_keep_the_values(phi, c, 1e-9)


@settings(max_examples=40, deadline=None)
@given(bumps(2), st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_breaks_keep_the_values_2d(phi, c):
    _breaks_keep_the_values(phi, c, 1e-8)


def _cells_follow(g, box, cells):
    """Every cell boundary is a constant or the unclipped graph over its whole
    strip, and the cells tile the box."""
    for cell in cells:
        xs = np.linspace(cell.a1, cell.b1, 33)
        for edge in (cell.lo(xs), cell.hi(xs)):
            assert np.ptp(edge) <= 1e-13 or np.allclose(edge, g.fn(xs), rtol=0, atol=1e-13)
        assert np.all(cell.hi(xs) - cell.lo(xs) >= -1e-13)
    area, _ = integrate_cells(lambda p: np.ones(len(p)), cells, tol_abs=1e-13)
    (x0, x1), (y0, y1) = box
    assert area == pytest.approx((x1 - x0) * (y1 - y0), rel=1e-12)


@st.composite
def graph_boxes(draw):
    """A monotone graph crossing a generated box, and that box's plateau edges."""
    s = draw(st.floats(0.2, 3.0)) * draw(st.sampled_from([-1.0, 1.0]))
    q = draw(st.floats(-0.45, 0.45)) * abs(s)
    c0 = draw(st.floats(-0.3, 0.3))
    g = GraphCurve(lambda x: c0 + s * x + q * np.sin(x), lambda x: s + q * np.cos(x),
                   -1.0, 1.0)
    box = []
    for _ in range(2):
        a = draw(st.floats(-0.95, 0.6))
        box.append((a, draw(st.floats(a + 0.2, 0.95))))
    edges = [sorted(draw(st.lists(st.floats(lo, hi), min_size=2, max_size=2)))
             for lo, hi in box]
    return g, box, edges


@settings(max_examples=80, deadline=None)
@given(graph_boxes())
def test_graph_meeting_a_level_ends_a_strip(gb):
    # a graph crossing a plateau edge or leaving the box is the boundary of
    # no cell across that abscissa: every cell boundary is a constant or the
    # unclipped graph over its whole strip, and the cells tile the box
    g, box, (xe, ye) = gb
    cells = box_cells(box, [RectifiableSet(2, pieces=[g])], extra_x_breaks=xe,
                      extra_y_breaks=ye)
    _cells_follow(g, box, cells)


@pytest.mark.parametrize("s0, s1, slope", [(-1.0, 1.0, 1.0),      # at scan-grid points inside
                                           (-0.25, 0.25, 2.0)])   # at the ends of the scan
def test_graph_meeting_a_box_edge_at_a_grid_point_ends_a_strip(s0, s1, slope):
    # x2 = slope x1 meets the edges x2 = -+0.5 at x1 = -+0.5 / slope, where the
    # graph minus the edge is 0 on the grid itself
    g = GraphCurve(lambda x: slope * x, lambda x: np.full_like(x, slope), s0, s1)
    box = [(-1.0, 1.0), (-0.5, 0.5)]
    cells = box_cells(box, [RectifiableSet(2, pieces=[g])])
    assert {-0.5 / slope, 0.5 / slope} <= {c.a1 for c in cells} | {c.b1 for c in cells}
    _cells_follow(g, box, cells)


def test_crossing_graphs_raise_naming_a_strip_that_holds_the_crossing():
    # 0.3 x1 = 0.05 - 0.2 x1 at x1 = 0.1; the strip is not bisected toward it
    up = GraphCurve(lambda x: 0.3 * x, lambda x: np.full_like(x, 0.3), -1.0, 1.0, label="up")
    down = GraphCurve(lambda x: 0.05 - 0.2 * x, lambda x: np.full_like(x, -0.2), -1.0, 1.0,
                      label="down")
    with pytest.raises(GeometryError, match="curves cross inside strip") as err:
        box_cells([(-1.0, 1.0), (-1.0, 1.0)], [RectifiableSet(2, pieces=[up, down])])
    a, b = map(float, re.search(r"strip \(([^,]+), ([^)]+)\)", str(err.value)).groups())
    assert a < 0.1 < b


GRAPH_SCN = """
[scenario]
id = graph-{name}
dim = 2
domain = -1 .. 1 ; -1 .. 1
experiments = chain

[singular]
curves = graph {g} d {dg} from -1 to 1 side +1

[field]
b = 0, (1+t^2)*H(x2-({g}))
M = 6
t_range = -2 .. 2
b_plus = 0, 1+t^2
b_minus = 0, 0

[u]
regions = (x1 < 2): 0.4 + 0.2*x1 grad 0.2, 0
sup = 0.6
"""


@pytest.mark.parametrize("name, g, dg", [("steep", "0.8*x1", "0.8"),
                                         ("curved", "0.4*sin(3*x1)", "1.2*cos(3*x1)")])
def test_graph_crossing_plateau_edges_passes_the_oracle(name, g, dg):
    # the plateau edges of the straddling bumps meet these graphs inside
    # the bumps' supports; the strips must end there, not bisect toward them
    from divchain import runner
    from divchain.scenario import Scenario, parse_text

    scn = Scenario(parse_text(GRAPH_SCN.format(name=name, g=g, dg=dg)))
    res = runner.RunResult(scn.id)
    runner.run_chain(scn, res)
    assert res.passed
    [oracle] = [c for c in res.checks if c["name"] == "chain:oracle_equivalence"]
    assert oracle["data"]["max_difference"] <= 1e-9


# -- Cantor construction breaks ------------------------------------------------

def test_suite_members_split_at_the_construction_inside_their_support():
    dom = interval_domain(-0.5, 1.5)
    spec = IFSSpec(-0.3, 0.9)
    k = CANTOR_DEPTH
    ends = cantor_breaks(spec)
    width = (spec.b - spec.a) / 3 ** k
    assert len(ends) == 2 ** (k + 1) and np.all(np.diff(ends) > 0)
    assert ends[0] == spec.a and ends[-1] == pytest.approx(spec.b, abs=1e-15)
    assert np.allclose(ends[1::2] - ends[::2], width, rtol=1e-9, atol=0)
    assert np.all(ends[2::2] - ends[1:-1:2] >= width * (1 - 1e-9))   # gaps between them
    suite = build_suite(dom, RectifiableSet(1, [0.5], [1.0]), breaks_1d=ends)
    plain = build_suite(dom, RectifiableSet(1, [0.5], [1.0]))
    for phi, ref in zip(suite, plain):
        (lo, hi), = phi.support_box
        inside = {float(e) for e in ends if lo < e < hi}
        got = set(phi.breaks[0])
        assert inside <= got
        assert got - inside == set(ref.breaks[0])          # the plateau edges
        assert all(lo < b < hi for b in got)


NO_CANTOR_PART = """
[scenario]
id = cantor-declared-no-part
dim = 1
domain = -0.5 .. 1.5
experiments = chain

[field]
b = 2*t
M = 6
t_range = -3 .. 3

[u]
breaks =
pieces = 0.3*x1
grads = 0.3
cantor_amplitude = 0
cantor_base = -0.25 .. 1.25
sup = 1
"""


def test_cantor_breaks_come_from_the_scenario_not_the_measure(monkeypatch):
    from divchain import runner
    from divchain.scenario import Scenario, parse_text

    seen = []

    def spy(mu, v, suite, **kw):
        seen.append((mu, suite, kw["quad_tol"]))
        return real(mu, v, suite, **kw)

    real = runner.compare
    monkeypatch.setattr(runner, "compare", spy)
    scn = Scenario(parse_text(NO_CANTOR_PART))
    res = runner.RunResult(scn.id)
    runner.run_chain(scn, res)
    assert res.passed
    [(mu, suite, quad_tol)] = seen
    assert mu.cantor is None
    ends = cantor_breaks(IFSSpec(-0.25, 1.25))
    for phi in suite:
        (lo, hi), = phi.support_box
        assert {float(e) for e in ends if lo < e < hi} <= set(phi.breaks[0])


# b = exp(t) sign(x1) against u = x1: B(x, u(x)) is not polynomial in t, so
# integrate_to_upper doubles its Gauss order, point by point
EXP_T = (bundled_dir() / "w11-growing-x.scn").read_text(encoding="utf-8").replace(
    "1+t^2", "exp(t)").replace("M = 10", "M = 21")


@functools.lru_cache
def chain_scenario(name):
    """(scenario, primitive, chain_dm breakdown) of a bundled file, or of the
    EXP_T text."""
    from divchain.chainrule import chain_dm
    from divchain.field import PrimitiveField
    from divchain.scenario import Scenario, load, parse_text
    scn = Scenario(parse_text(EXP_T)) if name == "exp-t" else load(bundled_dir() / f"{name}.scn")
    prim = PrimitiveField(scn.field)
    return scn, prim, chain_dm(scn.field, scn.u)


@functools.lru_cache
def chain_case(name):
    """(suite, chain_dm total, v = B(x, u(x)), quadrature tolerance) as
    runner.run_chain builds them for a bundled file, or the EXP_T text."""
    from divchain import runner
    scn, prim, br = chain_scenario(name)
    suite = runner._suite(scn, cantor_breaks(scn.cantor_spec) if scn.is_cantor else ())
    q = max(scn.tol_abs / 3.0, 1e-10) if scn.is_cantor else max(scn.tol_abs / 30.0, 1e-10)
    return suite, br.total, runner._v_eval(prim, scn.u), q


# 1-D files with jumps and Cantor parts, 2-D files with a segment and a graph
DIFFERENTIAL = ["volpert-heaviside", "cantor-u-jump", "cantor-divb-bv", "2d-vline-jump",
                "2d-graph-diag", "exp-t"]


@pytest.mark.parametrize("name", DIFFERENTIAL)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(rnd=st.randoms(use_true_random=False), size=st.integers(1, 8))
def test_suite_actions_equal_the_per_phi_reference(name, rnd, size):
    # the suite-wide measure action and weak form against their one-function
    # routes, on a random subset of the suite in random order: bit-equal
    suite, mu, v, q = chain_case(name)
    phis = rnd.sample(list(suite), min(size, len(suite)))
    got = mu.apply(phis, tol_abs=q, tol_rel=q)
    weak, est = weak_divergence(v, phis, suite.domain, suite.singular, tol_abs=q)
    ref = np.array([apply_reference(mu, phi, q, q) for phi in phis])
    ref_weak, ref_est = np.array([weak_divergence_reference(v, phi, suite.domain, suite.singular,
                                                            tol_abs=q) for phi in phis]).T
    assert got.tolist() == ref.tolist()
    assert weak.tolist() == ref_weak.tolist() and est.tolist() == ref_est.tolist()


@st.composite
def box_lists(draw, domain):
    """One to four boxes, each axis cut at two of the nine points that split
    the domain's side into eighths (the 4 x 4 sub-boxes of tv_bound among
    them), in any order and possibly repeated."""
    def box():
        out = []
        for lo, hi in domain.bounds:
            i, j = sorted(draw(st.lists(st.integers(0, 8), min_size=2, max_size=2, unique=True)))
            out.append((lo + (hi - lo) * i / 8, lo + (hi - lo) * j / 8))
        return tuple(out)
    return [box() for _ in range(draw(st.integers(1, 4)))]


@pytest.mark.parametrize("name", DIFFERENTIAL)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(data=st.data())
def test_box_list_total_variations_equal_the_per_box_reference(name, data):
    # each term, the total, sigma and |Du| over a list of boxes in one call,
    # against one call per box of the route it replaced: bit-equal
    scn, _, br = chain_scenario(name)
    boxes = data.draw(box_lists(scn.domain))
    tol = 3e-7 if scn.is_cantor else 1e-9
    breaks = cantor_breaks(scn.cantor_spec) if scn.is_cantor else ()
    for mu in (*br.terms().values(), br.total, scn.field.sigma(scn.sigma_samples),
               scn.u.variation_measure()):
        got = mu.total_variation(boxes, tol, tol, breaks)
        assert got.tolist() == [total_variation_reference(mu, box, tol, tol, breaks)
                                for box in boxes]


@pytest.mark.parametrize("name", ["product-sin-heaviside", "sign-const", "cantor-u-jump"])
@pytest.mark.parametrize("h", [IDENTITY, ScalarFunction(np.sin, np.cos, 1.0)],
                         ids=["identity", "sin"])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(data=st.data())
def test_product_rule_terms_equal_the_hand_built_reference(name, h, data):
    # product_rule's terms and total, taken from the chain rule's term builder,
    # against the hand-built ones they replaced, on a random subset of the
    # suite and a random box list: bit-equal (cantor-u-jump has a term 4)
    suite, _, _, q = chain_case(name)
    scn, _, _ = chain_scenario(name)
    phis = data.draw(st.randoms(use_true_random=False)).sample(list(suite), 4)
    boxes = data.draw(box_lists(scn.domain))
    tol = 3e-7 if scn.is_cantor else 1e-9
    breaks = cantor_breaks(scn.cantor_spec) if scn.is_cantor else ()
    got, ref = (f(scn.field, h, scn.u) for f in (product_rule, product_rule_reference))
    for mu, mu_ref in zip((*got.terms().values(), got.total),
                          (*ref.terms().values(), ref.total)):
        assert mu.apply(phis, q, q).tolist() == mu_ref.apply(phis, q, q).tolist()
        assert mu.total_variation(boxes, tol, tol, breaks).tolist() == \
            mu_ref.total_variation(boxes, tol, tol, breaks).tolist()


ONE_D = ["bv-scalar-signt-2h", "cantor-divb-bv", "cantor-divb-w11", "cantor-u-autonomous",
         "cantor-u-jump", "moll-halfline", "moll-sign-exp", "moll-sign-lin", "negative-control",
         "product-sin-heaviside", "sign-2t-heaviside", "sign-const", "volpert-heaviside",
         "w11-growing-x", "w11-sign-xsq"]


@pytest.mark.parametrize("name", ONE_D)
def test_weak_divergence_against_scipy_quad(name):
    # three members of the suite: the narrowest straddling the singular set,
    # one avoiding it and the widest, each recomputed by QUADPACK on the pieces
    # between the same declared breaks, each piece to a tenth of quad_tol
    # shared out.  The widest is left out on the Cantor files: its 516 pieces
    # take 1.8-2.7 s of scalar QUADPACK calls per file
    suite, _, v, q = chain_case(name)
    width = lambda phi: phi.support_box[0][1] - phi.support_box[0][0]
    family = lambda tag: [phi for phi in suite if phi.label.startswith(tag)]
    phis = [min(family("straddle"), key=width)] if family("straddle") else []
    phis += family("grid")[:1] + ([] if name.startswith("cantor") else [max(suite, key=width)])
    weak, _ = weak_divergence(v, phis, suite.domain, suite.singular, tol_abs=q)
    for phi, got in zip(phis, weak):
        (lo, hi), = phi.support_box
        cuts = sorted({lo, hi, *(c for c in [*phi.breaks[0], *suite.singular.points_1d]
                                 if lo < c < hi)})

        def f(x, phi=phi):
            pts = np.array([[x]])
            return -phi.gradient(pts)[0, 0] * v(pts)[0, 0]

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")         # QUADPACK's roundoff notes on 1e-14 pieces
            ref = sum(quad(f, a, b, epsabs=0.1 * q / len(cuts), epsrel=0, limit=50)[0]
                      for a, b in zip(cuts[:-1], cuts[1:]))
        assert abs(got - ref) <= 2 * q, (phi.label, got, ref)


def test_a_suite_stalls_exactly_where_one_of_its_members_does(dom11):
    # v oscillates without bound at 0, which no break declares: the member
    # straddling 0 stalls alone and stalls the suite; the others pass alone
    # and together, with the values they have alone
    v = lambda pts: np.sign(np.sin(50.0 / (np.abs(pts[:, :1]) + 1e-3)))
    fine = [plateau_bump([(0.3, 0.9)], [(0.5, 0.7)]), plateau_bump([(-0.9, -0.2)], [(-0.7, -0.4)])]
    wild = plateau_bump([(-0.1, 0.5)], [(0.1, 0.3)])        # its ramp crosses 0
    empty = RectifiableSet.empty(1)
    vals, _ = weak_divergence(v, fine, dom11, empty, tol_abs=1e-12)
    assert vals.tolist() == [weak_divergence_reference(v, phi, dom11, empty, tol_abs=1e-12)[0]
                             for phi in fine]
    with pytest.raises(IntegrationError, match="1d quadrature stalled"):
        weak_divergence_reference(v, wild, dom11, empty, tol_abs=1e-12)
    with pytest.raises(IntegrationError, match="1d quadrature stalled"):
        weak_divergence(v, [fine[0], wild, fine[1]], dom11, empty, tol_abs=1e-12)

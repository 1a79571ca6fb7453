from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divchain import (BVFunction, ParamField, PrimitiveField, RectifiableSet,
                      ScalarFunction, anzellotti_pairing, chain_bv_scalar, chain_dm,
                      chain_w11, green_check, layer_cake_action, plateau_bump,
                      product_rule, weak_divergence)
from divchain import chainrule, runner
from divchain.cantor import CantorPart, IFSSpec, cantor_function
from divchain.chainrule import ChainRuleBreakdown, _cantor_layer_cake, _mollified_indicator
from divchain.errors import GeometryError, WrongRegularityError
from divchain.measure import _smoothstep
from divchain.quadrature import integrate_1d, integrate_polar
from divchain.runner import RunResult, run_chain
from divchain.scenario import load

from conftest import ONES, ZEROS, sign_field, sign_t_field
from helpers import box_domain, bundled_path, interval_domain, midpoint_ifs, support_nodes


def oracle(field, u, phi, dom, singular):
    P = PrimitiveField(field)
    v = lambda pts: P.value(pts, u.eval(pts))
    val, _ = weak_divergence(v, phi, dom, singular, tol_abs=1e-11)
    return val


def test_chain_dm_autonomous_heaviside(dom11, heaviside, bump_center):
    b = ParamField(dom11, lambda pts, t: (2 * t * np.ones(len(pts)))[:, None],
                   sup_bound=8.0, t_range=(-3, 3))
    br = chain_dm(b, heaviside)
    # Dv = [u+^2 - u-^2] delta_0 = delta_0; all x-terms vanish
    assert br.total.apply(bump_center) == pytest.approx(1.0)
    assert br.term_diva.apply(bump_center) == 0.0
    assert br.term_ac_u.apply(bump_center) == 0.0
    assert br.term_jump.apply(bump_center) == pytest.approx(1.0)


def test_chain_dm_t_independent_constant(dom11, sign, bump_center):
    c = 0.75
    uc = BVFunction.piecewise_1d(dom11, [], values=[lambda x: c * np.ones_like(x)],
                                 grads=[ZEROS])
    br = chain_dm(sign, uc)
    assert br.total.apply(bump_center) == pytest.approx(2 * c)
    assert br.term_jump.apply(bump_center) == pytest.approx(2 * c)


def test_chain_dm_joint_jump_oracle(dom11, point_zero, heaviside, bump_center):
    b = sign_t_field(dom11, point_zero, factor=2.0)
    br = chain_dm(b, heaviside)
    ref = oracle(b, heaviside, bump_center, dom11, point_zero)
    assert br.total.apply(bump_center) == pytest.approx(ref, abs=1e-8)
    assert br.total.apply(bump_center) == pytest.approx(1.0, abs=1e-9)


def test_symmetric_regrouping_matches(dom11, point_zero, heaviside, bump_center):
    b = sign_t_field(dom11, point_zero, factor=2.0)
    br = chain_dm(b, heaviside)
    assert br.jump_symmetric.apply(bump_center) == pytest.approx(
        br.term_jump.apply(bump_center), abs=1e-12)


def test_chain_w11_requires_continuity(dom11, sign, heaviside):
    with pytest.raises(WrongRegularityError):
        chain_w11(sign, heaviside)


def test_chain_w11_examples(dom11, point_zero, sign, bump_center):
    # u = x^2 against sign(x): v = sign(x) x^2 is C^1, total purely a.c.
    u = BVFunction.piecewise_1d(dom11, [], values=[lambda x: x ** 2],
                                grads=[lambda x: 2 * x])
    br = chain_w11(sign, u)
    ref = oracle(sign, u, bump_center, dom11, point_zero)
    assert br.total.apply(bump_center) == pytest.approx(ref, abs=1e-9)
    assert br.term_jump.apply(bump_center) == pytest.approx(0.0, abs=1e-12)

    one = BVFunction.piecewise_1d(dom11, [], values=[ONES], grads=[ZEROS])
    assert chain_w11(sign, one).total.apply(bump_center) == pytest.approx(2.0)

    grow = ParamField(dom11,
                      lambda pts, t: ((1 + t ** 2) * np.sign(pts[:, 0]))[:, None],
                      sup_bound=10.0, singular_set=point_zero,
                      b_plus=lambda pts, t: ((1 + t ** 2) * np.ones(len(pts)))[:, None],
                      b_minus=lambda pts, t: (-(1 + t ** 2) * np.ones(len(pts)))[:, None],
                      t_range=(-3, 3))
    ux = BVFunction.piecewise_1d(dom11, [], values=[lambda x: x], grads=[ONES])
    br3 = chain_w11(grow, ux)
    ref3 = oracle(grow, ux, bump_center, dom11, point_zero)
    assert br3.total.apply(bump_center) == pytest.approx(ref3, abs=1e-8)
    assert br3.term_jump.apply(bump_center) == pytest.approx(0.0, abs=1e-12)


def test_layer_cake_cross_check(dom11, point_zero, sign, bump_center):
    u = BVFunction.piecewise_1d(dom11, [], values=[lambda x: x ** 2],
                                grads=[lambda x: 2 * x])
    br = chain_w11(sign, u)
    lc = layer_cake_action(sign, u, bump_center, t_tol=1e-9)
    xpart = (br.term_diva + br.term_divc + br.term_jump).apply(bump_center)
    assert lc == pytest.approx(xpart, abs=1e-7)


# Reference: the Cantor x-part of layer_cake_action before it was summed
# exactly in t.  The depth-20 nodes are sorted by u, so the action of the
# Cantor part on phi chi*_{u,t} is a prefix sum, a staircase in t with one
# step per node, and the adaptive rule integrates that staircase to t_tol.
# layer_cake_action evaluated it level by level; here it runs on all the
# levels of a pass at once.
def ref_cantor_layer_cake(field, u, phi, t_tol):
    xs, ws = support_nodes(field.divc_part.spec, 20)
    uvals = u.eval(xs[:, None])
    order = np.argsort(uvals, kind="stable")
    us = uvals[order]
    prefix = np.concatenate([[0.0], np.cumsum((phi.value(xs[:, None]) * ws)[order])])

    def integrand(ts):
        above = prefix[-1] - prefix[np.searchsorted(us, ts, side="right")]
        below = prefix[np.searchsorted(us, ts, side="left")]
        return np.sign(ts) * np.where(ts > 0, above, below) * field.divc_multiplier(ts)

    rng = u.sup_bound + 1e-9
    val, _ = integrate_1d(integrand, -rng, rng, breakpoints=[0.0], tol_abs=t_tol,
                          tol_rel=t_tol, max_segments=8192)
    return field.divc_part.mass * val


def cantor_x_field(spec, mass, mult, degree):
    """b(x, t) = mult(t) Cantor(x): Div_x b(., t) is mult(t) times the Cantor part."""
    C = cantor_function(spec)
    return ParamField(interval_domain(-0.5, 1.5),
                      lambda pts, t: (mult(t) * C(pts[:, 0]))[:, None], sup_bound=50.0,
                      divc_part=CantorPart(spec, mass), divc_multiplier=mult,
                      t_range=(-3, 3), t_degree=degree)


def affine_u(a, s):
    dom = interval_domain(-0.5, 1.5)
    return BVFunction.piecewise_1d(dom, [], values=[lambda x: a + s * x],
                                   grads=[lambda x: s * np.ones_like(x)],
                                   sup_bound=max(abs(a - 0.5 * s), abs(a + 1.5 * s)))


@settings(max_examples=10, deadline=None)
@given(spec=st.sampled_from([IFSSpec(0.0, 1.0), IFSSpec(-0.3, 0.9)]),
       mass=st.sampled_from([1.0, -0.5, 2.0]),
       coef=st.one_of(st.just("exp"),
                      st.lists(st.floats(-2, 2), min_size=1, max_size=4)),
       a=st.floats(-0.5, 0.5),
       s=st.floats(0.1, 1.5), s_sign=st.sampled_from([1.0, -1.0]),
       ends=st.tuples(st.floats(0.0, 0.2), st.floats(0.25, 0.45),
                      st.floats(0.55, 0.75), st.floats(0.8, 1.0)))
@example(spec=IFSSpec(0.0, 1.0), mass=1.0, coef="exp", a=0.1, s=1.0, s_sign=1.0,
         ends=(0.05, 0.3, 0.7, 0.95))
def test_cantor_layer_cake_is_the_exact_sum(spec, mass, coef, a, s, s_sign, ends):
    # layer_cake_action's Cantor part against mass * int phi F(u) dmu_C, with
    # F(s) = int_0^s mult the closed-form antiderivative; exp(t) has no
    # declared degree, so its F takes integrate_to_upper's doubling path
    if coef == "exp":
        mult, F, degree = np.exp, np.expm1, None
    else:
        c = np.asarray(coef)
        mult, degree = (lambda t: np.polyval(c, np.asarray(t, dtype=float))), len(c) - 1
        F = lambda v: np.polyval(np.polyint(c), v)
    u = affine_u(a, s * s_sign)
    field = cantor_x_field(spec, mass, mult, degree)
    width = spec.b - spec.a
    lo, plo, phi_, hi = (spec.a + e * width for e in ends)
    phi = plateau_bump([(lo, hi)], [(plo, phi_)])
    exact = mass * midpoint_ifs(lambda x: phi.value(x[:, None]) * F(u.eval(x[:, None])), spec)
    assert layer_cake_action(field, u, phi) == pytest.approx(exact, abs=1e-7)


def test_cantor_layer_cake_matches_the_staircase_route():
    # cantor-divb-w11: u = x1, Div_x b(., t) = t (Cantor part); t_tol as the
    # runner sets it for that scenario's tol_abs = 1e-5
    t_tol = 7e-6
    u = affine_u(0.0, 1.0)
    field = cantor_x_field(IFSSpec(0.0, 1.0), 1.0,
                           lambda t: np.asarray(t, dtype=float), 1)
    phi = plateau_bump([(-0.3, 1.3)], [(0.0, 1.0)])
    assert layer_cake_action(field, u, phi, t_tol=t_tol) == pytest.approx(
        ref_cantor_layer_cake(field, u, phi, t_tol), abs=t_tol)


# Reference: the Cantor sum over all the depth-20 cylinder midpoints, which
# _cantor_layer_cake summed before it ran on the Gauss route (a 16 MB table).
def ref_full_cantor_layer_cake(field, u, phi):
    xs, ws = support_nodes(field.divc_part.spec, 20)
    P = PrimitiveField(field)
    total = 0.0
    for x, w in zip(np.split(xs[:, None], 16), np.split(ws, 16)):
        total += float(np.dot(phi.value(x) * w, P.divc_weight(u.eval(x))))
    return field.divc_part.mass * total


@pytest.mark.parametrize("support, plateau, empty", [
    ((0.0, 0.5), (0.1, 0.3), False),          # inside the base (-0.3, 0.9)
    ((-0.45, 0.1), (-0.3, -0.1), False),      # straddling its left end
    ((-0.4, 1.2), (-0.2, 1.0), False),        # covering it
    ((0.15, 0.45), (0.2, 0.4), True),         # inside its middle gap: no mass
    ((-0.49, -0.31), (-0.4, -0.35), True),    # left of it: no mass
], ids=["inside", "straddling", "covering", "gap", "outside"])
def test_cantor_layer_cake_sums_only_the_support(support, plateau, empty):
    # the Gauss route at 1e-10 against the depth-20 midpoint sum, whose error
    # on this smooth integrand is second order in 3^-20; no node of the route
    # sees phi where the measure has no mass
    field = cantor_x_field(IFSSpec(-0.3, 0.9), -1.5,
                           lambda t: 1 + np.asarray(t, dtype=float) - t ** 2, 2)
    u = affine_u(0.2, 0.8)
    phi = plateau_bump([support], [plateau])
    got = _cantor_layer_cake(field, u, phi, 1e-10)
    want = ref_full_cantor_layer_cake(field, u, phi)
    assert (got == 0.0) == empty
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_chain_bv_scalar_examples(dom11, point_zero, bump_center):
    # autonomous reduction
    b_auto = ParamField(dom11, lambda pts, t: (2 * t * np.ones(len(pts)))[:, None],
                        sup_bound=8.0, t_range=(-3, 3))
    H = BVFunction.piecewise_1d(dom11, [0.0], values=[ZEROS, ONES],
                                grads=[ZEROS, ZEROS])
    br = chain_bv_scalar(b_auto, H)
    assert br.total.apply(bump_center) == pytest.approx(
        chain_dm(b_auto, H).total.apply(bump_center), abs=1e-12)

    # t-independent: product of BV functions
    sgn = sign_field(dom11, point_zero)
    u = BVFunction.piecewise_1d(dom11, [], values=[lambda x: 0.5 + 0.25 * x],
                                grads=[lambda x: 0.25 * np.ones_like(x)])
    br2 = chain_bv_scalar(sgn, u)
    ref2 = oracle(sgn, u, bump_center, dom11, point_zero)
    assert br2.total.apply(bump_center) == pytest.approx(ref2, abs=1e-9)

    # b = sign(x) t against u = 2H: v = 2H, total = 2 delta_0
    b = sign_t_field(dom11, point_zero)
    u2h = BVFunction.piecewise_1d(dom11, [0.0],
                                  values=[ZEROS, lambda x: 2 * np.ones_like(x)],
                                  grads=[ZEROS, ZEROS])
    br3 = chain_bv_scalar(b, u2h)
    ref3 = oracle(b, u2h, bump_center, dom11, point_zero)
    assert br3.total.apply(bump_center) == pytest.approx(ref3, abs=1e-8)
    assert br3.total.apply(bump_center) == pytest.approx(2.0, abs=1e-9)
    assert br3.total.apply(bump_center) == pytest.approx(
        chain_dm(b, u2h).total.apply(bump_center), abs=1e-10)


def test_product_rule_examples(dom11, point_zero, sign, heaviside, bump_center):
    ident = ScalarFunction(lambda t: np.asarray(t, dtype=float),
                           lambda t: np.ones_like(np.asarray(t, dtype=float)), 1.0)
    # h(t) = t, u smooth: Div(uA) = u(0) 2 delta + sign(x) u'(x) dx
    u = BVFunction.piecewise_1d(dom11, [], values=[lambda x: x], grads=[ONES])
    br = product_rule(sign, ident, u)
    ref = oracle(sign, u, bump_center, dom11, point_zero)
    assert br.total.apply(bump_center) == pytest.approx(ref, abs=1e-9)

    # h(t) = t^2, A smooth constant: Div(A h(u)) = (1 - 0) delta_0
    e1 = ParamField(dom11, lambda pts, t: np.ones((len(pts), 1)), sup_bound=1.0,
                    t_range=(-3, 3))
    sq = ScalarFunction(lambda t: np.asarray(t) ** 2,
                        lambda t: 2 * np.asarray(t, dtype=float), 2.0)
    br2 = product_rule(e1, sq, heaviside)
    assert br2.total.apply(bump_center) == pytest.approx(1.0)

    # h = sin, u = H, A = sign: total = sin(1) delta_0, oracle-confirmed
    hsin = ScalarFunction(np.sin, np.cos, 1.0)
    br3 = product_rule(sign, hsin, heaviside)
    v3 = lambda pts: (np.sign(pts[:, 0]) * np.sin(heaviside.eval(pts)))[:, None]
    ref3, _ = weak_divergence(v3, bump_center, dom11, point_zero, tol_abs=1e-11)
    assert br3.total.apply(bump_center) == pytest.approx(np.sin(1.0), abs=1e-9)
    assert br3.total.apply(bump_center) == pytest.approx(ref3, abs=1e-8)


def test_chain_dm_reduces_to_product_rule(dom11, point_zero, sign, heaviside,
                                          bump_center):
    ident = ScalarFunction(lambda t: np.asarray(t, dtype=float),
                           lambda t: np.ones_like(np.asarray(t, dtype=float)), 1.0)
    br_chain = chain_dm(sign, heaviside)
    br_prod = product_rule(sign, ident, heaviside)
    for k in br_chain.terms():
        assert br_chain.terms()[k].apply(bump_center) == pytest.approx(
            br_prod.terms()[k].apply(bump_center), abs=1e-10)


def test_anzellotti_examples(dom11, point_zero, sign, heaviside, bump_center):
    # A = sign, u = x: (A, Du) = sign(x) dx
    u = BVFunction.piecewise_1d(dom11, [], values=[lambda x: x], grads=[ONES])
    pairing = anzellotti_pairing(sign, u)
    phi_off = plateau_bump([(0.1, 0.9)], [(0.3, 0.7)])
    from divchain.quadrature import integrate_1d
    ref, _ = integrate_1d(lambda x: phi_off.value(x[:, None]) * np.sign(x), 0.1, 0.9)
    assert pairing.apply(phi_off) == pytest.approx(ref, abs=1e-10)

    # A, u smooth: (A, Du) = <A, grad u> dx
    smooth = ParamField(dom11, lambda pts, t: np.cos(pts[:, 0])[:, None], sup_bound=1.0,
                        diva=lambda pts, t: -np.sin(pts[:, 0]), t_range=(-3, 3))
    pairing2 = anzellotti_pairing(smooth, u)
    ref2, _ = integrate_1d(lambda x: bump_center.value(x[:, None]) * np.cos(x),
                           -0.5, 0.5)
    assert pairing2.apply(bump_center) == pytest.approx(ref2, abs=1e-10)

    # A = sign, u = H: Div(uA) = delta_0 and u* Div A = delta_0, so zero
    pairing3 = anzellotti_pairing(sign, heaviside)
    assert pairing3.apply(bump_center) == pytest.approx(0.0, abs=1e-10)


def test_tv_bound(dom11, point_zero, heaviside):
    b = sign_t_field(dom11, point_zero, factor=2.0)
    br = chain_dm(b, heaviside)
    sigma = b.sigma([0.0, 1.0, 2.0])
    lhs, tv_sigma, tv_du = (mu.total_variation(None, 1e-9, 1e-9)
                            for mu in (br.total, sigma, heaviside.variation_measure()))
    assert lhs <= tv_sigma + b.M * tv_du + 1e-9


def test_degenerate_jump_reported(dom11, point_zero):
    b = sign_field(dom11, point_zero)
    equal = BVFunction.piecewise_1d(dom11, [0.0],
                                    values=[lambda x: 0.3 * np.ones_like(x)] * 2,
                                    grads=[ZEROS, ZEROS])
    # the u:structure check reports it; the breakdown is still built
    assert dict(equal.validate())["jump_nondegenerate"] is False
    chain_dm(b, equal)


def test_green_examples(dom11, point_zero, sign):
    lin = ParamField(dom11, lambda pts, t: pts[:, 0][:, None], sup_bound=1.0,
                     diva=lambda pts, t: np.ones(len(pts)), t_range=(-3, 3))
    lhs, rhs = green_check(lin, ("box", ((-0.5, 0.5),)), w0=0.02)
    assert rhs == pytest.approx(1.0) and lhs == pytest.approx(rhs, abs=1e-7)

    lhs, rhs = green_check(sign, ("box", ((-0.9, 0.9),)), w0=0.02)
    assert rhs == pytest.approx(2.0) and lhs == pytest.approx(rhs, abs=1e-8)

    dom2 = box_domain((-1, 1), (-1, 1))
    radial = ParamField(dom2, lambda pts, t: pts.copy(), sup_bound=2.0,
                        diva=lambda pts, t: 2 * np.ones(len(pts)), t_range=(-3, 3))
    lhs, rhs = green_check(radial, ("box", ((-0.5, 0.5), (-0.5, 0.5))), w0=0.03)
    assert rhs == pytest.approx(2.0, abs=1e-10)
    assert lhs == pytest.approx(rhs, rel=1e-6)
    lhs, rhs = green_check(radial, ("disc", ((0.1, -0.1), 0.5)), w0=0.03)
    assert rhs == pytest.approx(2 * np.pi * 0.25, abs=1e-8)
    assert lhs == pytest.approx(rhs, rel=1e-6)


def _spy_polar(monkey):
    """Patches chainrule.integrate_polar to record each value it returns."""
    got = []

    def spy(*args, **kwargs):
        v = integrate_polar(*args, **kwargs)
        got.append(v[0])
        return v

    monkey.setattr(chainrule, "integrate_polar", spy)
    return got


@settings(max_examples=4, deadline=None, derandomize=True)
@given(coef=st.lists(st.floats(-2.0, 2.0), min_size=10, max_size=10),
       radius=st.floats(0.1, 0.4), at=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       w0=st.floats(0.08, 0.12))
# box cells at 1e-8 read 1.0284577460843358 at w = 0.03, off by 1.6e-6; polar cells are right
@example([1.2734375, 1.0, 1.875, 0.40625, 0.390625, 0.208984375, -0.73046875, 0.0, 0.0,
          -0.24609375], 0.37108872151070915, (0.58203125, 0.953125), 0.12)
def test_polar_disc_value_matches_box_cells(coef, radius, at, w0):
    """On a smooth field, diva = sum c_ij x1^i x2^j (i + j <= 3), each width's
    polar value in green_check (at its 1e-8) equals the box-cell action it
    replaces, taken at 1e-9: at 1e-8 the box cells' error estimate can miss."""
    terms = list(zip(coef, [(i, j) for i in range(4) for j in range(4 - i)]))
    diva = lambda p, t: sum(c * p[:, 0] ** i * p[:, 1] ** j for c, (i, j) in terms)
    # b = (b1, 0) with d b1 / d x1 = diva
    b1 = lambda p: sum(c * p[:, 0] ** (i + 1) * p[:, 1] ** j / (i + 1) for c, (i, j) in terms)
    field = ParamField(box_domain((-1, 1), (-1, 1)), lambda p, t: np.column_stack([b1(p), 0 * b1(p)]),
                       sup_bound=25.0, diva=diva, t_range=(-1, 1))
    room = 0.99 - radius - w0                 # the support of chi_w0 stays inside the domain
    center = (at[0] * room, at[1] * room)
    with pytest.MonkeyPatch.context() as mp:
        got = _spy_polar(mp)
        green_check(field, ("disc", (center, radius)), w0=w0)
    div_a = field.div_measure(0.0)
    want = [div_a.apply(_mollified_indicator((center, radius), "disc", w, 2), tol_abs=1e-9,
                        tol_rel=1e-10) for w in (w0, w0 / 2, w0 / 4)]
    assert len(got) == 3
    assert np.max(np.abs(np.array(got) - want)) <= 2e-8


def test_green_disc_crossed_by_a_jump_runs_on_box_cells(monkeypatch):
    field = load(bundled_path("2d-vline-jump")).field
    got = _spy_polar(monkeypatch)
    lhs, rhs = green_check(field, ("disc", ((0.1, -0.1), 0.5)))
    assert got == []
    assert runner._round(lhs) == 1.959591774264
    assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(center=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       radius=st.floats(0.05, 1.0), w=st.floats(1e-3, 0.1),
       pts=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                    min_size=1, max_size=20))
def test_disc_indicator_is_bit_equal_to_the_norm_form(center, radius, w, pts):
    pts = np.array(pts + [center])          # the centre itself too, at distance 0
    got = _mollified_indicator((center, radius), "disc", w, 2).value(pts)
    d = np.linalg.norm(pts - np.asarray(center), axis=1)
    assert np.array_equal(got, _smoothstep((radius + w - d) / (2 * w)))


def test_green_tangency_rejected(dom11, point_zero, sign):
    with pytest.raises(GeometryError):
        green_check(sign, ("box", ((0.0, 0.5),)))


def test_orientation_invariance(dom11, point_zero, heaviside, bump_center):
    b = sign_t_field(dom11, point_zero, factor=2.0)
    br = chain_dm(b, heaviside)
    br_f = chain_dm(b.flipped(), heaviside.flipped())
    assert br.total.apply(bump_center) == pytest.approx(
        br_f.total.apply(bump_center), abs=1e-12)


def _w11_offset(tmp_path):
    """w11-growing-x with u = x1 + 0.5: its jump term at 0 is 2 (0.5 + 0.5^3/3).
    Every bundled w11 file has u = 0 at its jump point, so a jump term of 0."""
    text = open(bundled_path("w11-growing-x"), encoding="utf-8").read()
    edited = text.replace("pieces = x1\n", "pieces = x1 + 0.5\n").replace("sup = 1\n",
                                                                         "sup = 1.5\n")
    assert "pieces = x1 + 0.5\n" in edited and "sup = 1.5\n" in edited
    path = tmp_path / "w11-offset.scn"
    path.write_text(edited, encoding="utf-8")
    return load(str(path))


def test_w11_jump_term_lives_on_n_at_u(tmp_path, bump_center):
    scn = _w11_offset(tmp_path)
    br = chain_w11(scn.field, scn.u)
    assert br.term_jump.apply(bump_center) == pytest.approx(2 * (0.5 + 0.5 ** 3 / 3),
                                                            abs=1e-12)
    assert br.total.apply(bump_center) == pytest.approx(
        chain_dm(scn.field, scn.u).total.apply(bump_center), abs=1e-12)


def test_w11_matches_chain_dm_sees_a_scaled_jump_density(tmp_path, monkeypatch):
    # chain_dm with its jump density scaled by 1 + 1e-6, wherever it is looked up
    real = chainrule.chain_dm

    def scaled(*args, **kw):
        br = real(*args, **kw)
        return ChainRuleBreakdown(br.term_diva, br.term_divc, br.term_ac_u, br.term_cantor_u,
                                  br.term_jump * (1 + 1e-6),
                                  jump_symmetric=br.jump_symmetric * (1 + 1e-6))

    monkeypatch.setattr(chainrule, "chain_dm", scaled)
    monkeypatch.setattr(runner, "chain_dm", scaled)
    scn = _w11_offset(tmp_path)
    res = RunResult(scn.id)
    run_chain(scn, res, mode="w11")
    check = next(c for c in res.checks if c["name"] == "w11:matches_chain_dm")
    assert not check["pass"] and check["data"]["max_difference"] > 1e-7


def test_anzellotti_identity_sees_a_scaled_u_star_div(monkeypatch):
    # Div(u A) = u* Div A + (A, Du) compares two constructions: with u* Div A
    # scaled by 1.5 it must fail on the one bundled file that runs it
    scn = load(bundled_path("product-sin-heaviside"))
    for scale, passes in ((1.0, True), (1.5, False)):
        real = chainrule.u_star_div
        monkeypatch.setattr(chainrule, "u_star_div", lambda *a, real=real: real(*a) * scale)
        res = RunResult(scn.id)
        runner.run_anzellotti(scn, res)
        check = next(c for c in res.checks if c["name"] == "anzellotti:identity")
        assert check["pass"] is passes, check
        monkeypatch.undo()


@pytest.mark.parametrize("build, name", [(chain_dm, "2d-smooth-disc"),
                                         (chain_w11, "moll-sign-lin"),
                                         (chain_bv_scalar, "moll-sign-lin")])
def test_total_density_evaluates_u_once_per_point(build, name):
    scn = load(bundled_path(name))
    calls = Counter()

    def counting(fn, key):
        def wrapped(pts):
            calls[key] += 1
            return fn(pts)
        return wrapped

    for i, piece in enumerate(scn.u.pieces):
        piece.value = counting(piece.value, ("value", i))
        piece.grad = counting(piece.grad, ("grad", i))
    br = build(scn.field, scn.u)
    pts = scn.domain.grid(15)
    got = br.total.ac(pts)
    assert ("value", 0) in calls and set(calls.values()) == {1}
    # the fused density is the sum of the two terms', bit for bit
    want = br.term_ac_u.ac(pts)
    if br.term_diva.ac is not None:
        want = br.term_diva.ac(pts) + want
    assert got.tobytes() == want.tobytes()

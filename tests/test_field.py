import numpy as np
import pytest

from divchain import (ParamField, PrimitiveField, RadonMeasure, RectifiableSet,
                      mollified_normal_trace, plateau_bump, singular_set_check, subboxes)
from divchain.cantor import MIDDLE_THIRDS, CantorPart, cantor_function
from divchain.cli import bundled_dir
from divchain.errors import BoundaryError
from divchain.quadrature import integrate_1d

from conftest import sign_field, sign_t_field
from helpers import box_domain, check_derivative, interval_domain


@pytest.fixture
def bump(bump_center):
    return bump_center


def weak_action(v_of_t, phi, t, breakpoints=(0.0,)):
    """- int phi' v(., t) dx : brute-force weak divergence for 1D fields."""
    val, _ = integrate_1d(
        lambda x: -phi.gradient(x[:, None])[:, 0] * v_of_t(x[:, None], t)[:, 0],
        phi.support_box[0][0], phi.support_box[0][1],
        breakpoints=breakpoints, tol_abs=1e-12)
    return val


def test_sigma_of_t_scaled_sign(dom11, point_zero, bump):
    b = sign_t_field(dom11, point_zero)
    samples = [0.0, 1.0, 2.0]
    # brute-force: per-sample |Div| via the weak form, then the max
    per_t = []
    for t in samples:
        per_t.append(abs(weak_action(b.eval, bump, t)))
    sigma = b.sigma(samples)
    assert sigma.apply(bump) == pytest.approx(max(per_t), abs=1e-9)
    assert sigma.apply(bump) == pytest.approx(4.0, abs=1e-9)


def test_sigma_trivial_cases(dom11, point_zero, bump):
    const = ParamField(dom11, lambda pts, t: np.ones((len(pts), 1)), sup_bound=1.0)
    assert const.sigma([0.0, 1.0]).apply(bump) == pytest.approx(0.0)
    b = sign_field(dom11, point_zero)
    assert b.sigma([0.5]).apply(bump) == pytest.approx(2.0)


def peaked_field():
    """A field on [-0.5, 1.5] with a jump point at -0.25 and a Cantor
    divergence on [0, 1], whose |diva|, jump density and Cantor multiplier
    peak at t = 0, 1 and 2, and an envelope (4 - 4 x^2) dx, a jump of 1.5
    and a Cantor mass of 2 that wins only on the a.c. part near x = 0."""
    dom = interval_domain(-0.5, 1.5)
    rect = RectifiableSet(1, [-0.25], [1.0])
    half_jump = lambda pts, t: np.full((len(pts), 1), (1 + 2 * t - t * t) / 2)
    envelope = RadonMeasure(dom, ac=lambda pts: 4 - 4 * pts[:, 0] ** 2, ac_singular=rect,
                            jumps=RadonMeasure.from_jump(
                                dom, rect, lambda pts, nus: np.full(len(pts), 1.5)).jumps,
                            cantor=CantorPart(MIDDLE_THIRDS, 2.0))
    b = ParamField(dom, lambda pts, t: np.zeros((len(pts), 1)), sup_bound=1.0,
                   singular_set=rect, b_plus=half_jump,
                   b_minus=lambda pts, t: -half_jump(pts, t),
                   diva=lambda pts, t: (3 - 2 * t) * (1 + pts[:, 0] ** 2),
                   divc_part=CantorPart(MIDDLE_THIRDS, 1.0),
                   divc_multiplier=lambda t: t * t - 1, t_range=(0, 2),
                   sigma_envelope=envelope)
    return b, [0.0, 1.0, 2.0]


def test_sigma_is_the_part_wise_max():
    b, samples = peaked_field()
    dom, rect = b.domain, b.singular_set
    by_hand = RadonMeasure(
        dom, ac=lambda pts: np.maximum(3.0 * (1 + pts[:, 0] ** 2), 4 - 4 * pts[:, 0] ** 2),
        ac_singular=rect,
        jumps=RadonMeasure.from_jump(dom, rect, lambda pts, nus: np.full(len(pts), 2.0)).jumps,
        cantor=CantorPart(MIDDLE_THIRDS, 3.0))
    sigma = b.sigma(samples)
    for phi in (plateau_bump([(-0.4, 1.4)], [(-0.3, 1.2)]),
                plateau_bump([(-0.45, 0.3)], [(-0.3, 0.1)])):
        assert sigma.apply(phi) == by_hand.apply(phi)
    for box in (((-0.5, 1.5),), ((-0.4, 0.2),), ((0.1, 0.9),)):
        assert sigma.total_variation(box) == by_hand.total_variation(box)


def test_sigma_dominates_every_sample_on_each_sub_box():
    b, samples = peaked_field()
    sigma = b.sigma(samples)
    for box in subboxes(b.domain, 4):
        tv = sigma.total_variation(box)
        for t in samples:
            assert tv >= b.div_measure(t).total_variation(box)


def test_singular_set_check(dom11, point_zero):
    b = sign_field(dom11, point_zero)
    rep = singular_set_check(b, b.sigma([1.0]))
    assert rep["consistent"]
    on = [r for r in rep["points"] if r["on_declared_set"]]
    assert on and all(r["positive_density"] for r in on)


def test_singular_set_check_2d():
    from divchain import Segment
    dom = box_domain((-1, 1), (-1, 1))
    N = RectifiableSet(2, pieces=[Segment(0, 0.0, -1, 1, +1)])
    b = ParamField(dom, lambda pts, t: np.column_stack([np.sign(pts[:, 0]),
                                                        np.zeros(len(pts))]),
                   sup_bound=1.0, singular_set=N,
                   b_plus=lambda pts, t: np.column_stack([np.ones(len(pts)),
                                                          np.zeros(len(pts))]),
                   b_minus=lambda pts, t: np.column_stack([-np.ones(len(pts)),
                                                           np.zeros(len(pts))]))
    rep = singular_set_check(b, b.sigma([1.0]), radii=(1e-1, 1e-2))
    assert rep["consistent"]


def test_primitive_autonomous(dom11):
    b = ParamField(dom11, lambda pts, t: (2 * t * np.ones(len(pts)))[:, None],
                   sup_bound=6.0, t_range=(-3, 3))
    P = PrimitiveField(b)
    pts = dom11.grid(5)
    assert np.allclose(P.value(pts, 1.5)[:, 0], 2.25, atol=1e-12)
    assert check_derivative(P)


def test_primitive_traces(dom11, point_zero):
    b = sign_t_field(dom11, point_zero, factor=2.0)
    P = PrimitiveField(b)
    z = np.array([[0.0]])
    assert P.plus(z, 2.0)[0, 0] == pytest.approx(4.0)     # int_0^2 2w dw
    assert P.minus(z, 2.0)[0, 0] == pytest.approx(-4.0)


def test_primitive_divergence_matches_weak_oracle(dom11, point_zero, bump):
    # Div_x B(., t) = [int_0^t dDiv_x b / dsigma] sigma for b = sign e1
    b = sign_field(dom11, point_zero)
    P = PrimitiveField(b)
    for t in (0.5, 1.0, 2.0):
        mu = P.div_measure(t)
        ref = weak_action(P.value, bump, t)
        assert mu.apply(bump) == pytest.approx(ref, abs=1e-9)
        assert mu.apply(bump) == pytest.approx(2 * t, abs=1e-9)


def test_div_decomposition_examples(dom11, point_zero, bump):
    b = sign_field(dom11, point_zero)
    assert b.div_measure(1.7).apply(bump) == pytest.approx(2.0)

    lin = ParamField(dom11, lambda pts, t: (pts[:, 0] * t)[:, None], sup_bound=3.0,
                     diva=lambda pts, t: t * np.ones(len(pts)), t_range=(-3, 3))
    mu = lin.div_measure(0.75)
    ref = weak_action(lin.eval, bump, 0.75, breakpoints=())
    assert mu.apply(bump) == pytest.approx(ref, abs=1e-10)


def test_div_decomposition_cantor_oracle():
    # b(x, t) = t C(x): Div_x b(., t) = t (Cantor measure); weak oracle at
    # a fixed refinement depth
    dom = interval_domain(-0.5, 1.5)
    C = cantor_function()
    b = ParamField(dom, lambda pts, t: (C(pts[:, 0]) * t)[:, None], sup_bound=3.0,
                   divc_part=CantorPart(MIDDLE_THIRDS, 1.0),
                   divc_multiplier=lambda t: np.asarray(t, dtype=float),
                   t_range=(-3, 3))
    phi = plateau_bump([(-0.4, 1.4)], [(-0.1, 1.1)])
    t = 2.0
    mu = b.div_measure(t)
    weak, _ = integrate_1d(
        lambda x: -phi.gradient(x[:, None])[:, 0] * t * C(x), -0.4, 1.4,
        tol_abs=3e-7, tol_rel=1e-7)
    assert mu.apply(phi) == pytest.approx(weak, abs=1e-5)


def test_jump_density_is_trace_difference(dom11, point_zero):
    # the interface density of the decomposition equals beta+ - beta-
    b = sign_t_field(dom11, point_zero)
    for t in (0.5, 1.5):
        g = b.jump_density(t)
        val = g(np.array([[0.0]]), np.array([[1.0]]))[0]
        assert val == pytest.approx(2 * t)


def test_mollified_trace_examples(dom11, point_zero):
    b = sign_field(dom11, point_zero)
    for eps in (0.1, 0.05, 0.025):
        assert abs(mollified_normal_trace(b, 1.0, [0.0], eps)) < 1e-12

    H = ParamField(dom11, lambda pts, t: (pts[:, 0] > 0).astype(float)[:, None],
                   sup_bound=1.0, singular_set=point_zero,
                   b_plus=lambda pts, t: np.ones((len(pts), 1)),
                   b_minus=lambda pts, t: np.zeros((len(pts), 1)))
    assert mollified_normal_trace(H, 0.0, [0.0], 0.05) == pytest.approx(0.5)

    mod = ParamField(dom11, lambda pts, t: (np.sign(pts[:, 0]) * (1 + pts[:, 0] ** 2))[:, None],
                     sup_bound=2.0, singular_set=point_zero,
                     b_plus=lambda pts, t: (1 + pts[:, 0] ** 2)[:, None],
                     b_minus=lambda pts, t: -(1 + pts[:, 0] ** 2)[:, None])
    vals = [abs(mollified_normal_trace(mod, 0.0, [0.0], e)) for e in (0.1, 0.05, 0.025)]
    assert vals[2] <= vals[1] + 1e-12 <= vals[0] + 2e-12


def test_mollified_trace_boundary_error(dom11, point_zero):
    b = sign_field(dom11, point_zero)
    shifted = RectifiableSet(1, [0.95], [1.0])
    b2 = sign_field(dom11, shifted)
    with pytest.raises(BoundaryError):
        mollified_normal_trace(b2, 0.0, [0.95], 0.1)


def test_lipschitz_diva_validation(dom11):
    b = ParamField(dom11, lambda pts, t: (pts[:, 0] * t)[:, None], sup_bound=3.0,
                   diva=lambda pts, t: t * np.ones(len(pts)),
                   lipschitz_div=lambda pts: np.ones(len(pts)), t_range=(-3, 3))
    rows = {name: ok for name, ok, *_ in b.validate()}
    assert rows["lipschitz_diva"]


def test_bound_validation(dom11, point_zero):
    b = sign_field(dom11, point_zero)
    rows = {name: ok for name, ok, *_ in b.validate()}
    assert rows["bounded_by_M"]


def test_validate_skips_every_grid_point_on_the_singular_set():
    from divchain.rectifiable import Segment
    from divchain.scenario import load
    scn = load(str(bundled_dir() / "2d-vline-jump.scn"))
    pts = scn.field.domain.grid(21)
    on_line = np.abs(pts[:, 0]) <= 1e-12
    assert on_line.sum() == 21
    assert np.array_equal(scn.field.singular_set.contains(pts, 1e-9), on_line)
    # a value on the jump line beyond M is no bound violation
    dom = box_domain((-1.0, 1.0), (-1.0, 1.0))
    line = RectifiableSet(2, pieces=[Segment(0, 0.0, -1.0, 1.0, +1)])
    b = ParamField(dom, lambda p, t: np.where(np.abs(p[:, :1]) <= 1e-12, 100.0, np.sign(p[:, :1]))
                   * np.array([1.0, 0.0]), sup_bound=1.0, singular_set=line)
    rows = {name: (ok, value) for name, ok, value in b.validate()}
    assert rows["bounded_by_M"] == (True, 1.0)

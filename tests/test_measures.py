import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from divchain import RadonMeasure, RectifiableSet, Segment, check_dominated, plateau_bump
from divchain.cantor import MIDDLE_THIRDS, CantorPart
from divchain.errors import AbsoluteContinuityError, DomainMismatchError
from divchain.geometry import subboxes
from divchain.oracle import cantor_breaks
from divchain.scenario import Scenario, parse_text

from helpers import box_domain, cantor_measure, interval_domain, lebesgue, point_mass


@pytest.fixture
def dom():
    return interval_domain(-1.0, 1.0)


def test_plateau_bump_action_against_reference(dom):
    # mu = Lebesgue on [0,1]; plateau bump supported on [0.2, 0.8] with
    # plateau [0.3, 0.7].  Reference = adaptive quadrature of the bump.
    d01 = interval_domain(0.0, 1.0)
    phi = plateau_bump([(0.2, 0.8)], [(0.3, 0.7)])
    ref = quad(lambda x: float(phi.value(np.array([[x]]))[0]), 0.2, 0.8,
               epsabs=1e-11)[0]
    val = lebesgue(d01).apply(phi)
    assert abs(val - ref) < 1e-10
    # the quintic step is symmetric, so the value is exactly 0.5
    assert abs(val - 0.5) < 1e-10


def test_dirac_action(dom):
    phi = plateau_bump([(-0.5, 0.5)], [(-0.2, 0.2)])
    assert point_mass(dom, 0.0, 1.0).apply(phi) == pytest.approx(1.0)


def test_cantor_action_on_identity():
    d = interval_domain(-0.5, 1.5)
    mu = cantor_measure(d, CantorPart(MIDDLE_THIRDS, 1.0))
    assert abs(mu.apply_function(lambda p: p[:, 0]) - 0.5) < 1e-9


def test_support_outside_domain_raises(dom):
    phi = plateau_bump([(0.5, 1.5)], [(0.8, 1.2)])
    with pytest.raises(DomainMismatchError):
        lebesgue(dom).apply(phi)


def test_total_variation_examples(dom):
    assert point_mass(dom, 0.0, -2.0).total_variation() == pytest.approx(2.0)
    m = lebesgue(dom, lambda p: np.sign(p[:, 0]),
                              singular=RectifiableSet(1, [0.0], [1.0]))
    assert m.total_variation() == pytest.approx(2.0, abs=1e-9)
    d = interval_domain(-0.5, 1.5)
    c = cantor_measure(d, CantorPart(MIDDLE_THIRDS, -3.0))
    assert c.total_variation() == pytest.approx(3.0)


def test_cantor_tv_of_sub_boxes_adds_up_across_edges_in_the_cantor_set():
    # 0.25 and 0.75 are points of the Cantor set of [0, 1]
    dom = interval_domain(-0.5, 1.5)
    cuts = [-0.5, 0.25, 0.75, 1.5]
    for density in (None, lambda x: 1.0 + x * x):
        mu = cantor_measure(dom, CantorPart(MIDDLE_THIRDS, -2.0), density)
        parts = mu.total_variation([((a, b),) for a, b in zip(cuts[:-1], cuts[1:])])
        assert min(parts) > 0.3
        assert abs(sum(parts) - mu.total_variation()) <= 1e-8


def test_cantor_tv_of_a_box_holding_the_base_is_unchanged():
    # no cylinder holds an edge of the box, so the route is the domain's
    dom = interval_domain(-0.5, 1.5)
    h = lambda x: 1.0 + x * x
    box = ((-0.25, 1.0),)
    assert cantor_measure(dom, CantorPart(MIDDLE_THIRDS, -2.0)).total_variation(box) == 2.0
    mu = cantor_measure(dom, CantorPart(MIDDLE_THIRDS, -2.0), h)
    assert mu.total_variation(box) == mu.total_variation()
    assert mu.total_variation(box) == pytest.approx(2.0 * (1.0 + 3.0 / 8.0), abs=1e-12)


@st.composite
def nonnegative_cases(draw, dim):
    """(scenario text, kinks of sigma): sigma is the max of |2 x1 - t| over
    drawn samples t, which kinks where a density touches 0 and where two
    cross, and |Du| has |grad u| = 0 at a drawn critical point:
    - 1-D, with a jump of the field, a jump of u in the middle gap of the
      Cantor base, Cantor parts in both, and the construction's endpoints as
      breaks, at the Cantor files' TV tolerance;
    - 2-D, with the field's jump on a drawn sloped line, so that the
      sub-boxes it crosses fall into curved box_cells."""
    num = lambda lo, hi: f"{draw(st.floats(lo, hi)):.4f}"
    t = [float(num(-2.0, 2.0)) for _ in range(draw(st.integers(1, 3)))]
    ts, kinks = ", ".join(map(str, t)), [(a + b) / 4 for a in t for b in t]
    c, a = num(-0.9, 0.9), num(-0.9, 0.9)
    if dim == 1:
        p, q = num(-0.9, -0.1), num(0.4, 0.6)
        return f"""[scenario]
id = nn-1d
dim = 1
domain = -1 .. 1
experiments = chain
[singular]
points = {p} : +1
[field]
b = x1^2 - t*x1 + (1+t^2)*Cantor(x1) + t*H(x1-{p})
M = 20
t_range = -3 .. 3
diva = 2*x1 - t
b_plus = x1^2 - t*x1 + (1+t^2)*Cantor(x1) + t
b_minus = x1^2 - t*x1 + (1+t^2)*Cantor(x1)
divc_mass = 1
divc_multiplier = 1+t^2
sigma_t_samples = {ts}
[u]
breaks = {q} : +1
pieces = 0.2 + 0.5*(x1-{c})^2 | -0.3 + 0.4*(x1-{c})^2
grads = x1-{c} | 0.8*(x1-{c})
cantor_amplitude = {num(-0.5, 0.5)}
sup = 3
""", kinks
    m, e = num(-0.5, 0.5), num(-0.3, 0.3)
    return f"""[scenario]
id = nn-2d
dim = 2
domain = -1 .. 1 ; -1 .. 1
experiments = chain
[singular]
curves = graph {e} + {m}*x1 d {m} from -1 to 1 side +1
[field]
b = (x1-t)*x1, (1+t^2)*H(x2-{e}-{m}*x1)
M = 10
t_range = -2 .. 2
diva = 2*x1 - t
b_plus = (x1-t)*x1, 1+t^2
b_minus = (x1-t)*x1, 0
sigma_t_samples = {ts}
[u]
regions = (x1 < 2): 0.25*((x1-{c})^2 + (x2-{a})^2) grad 0.5*(x1-{c}), 0.5*(x2-{a})
sup = 2
""", kinks


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=3, deadline=None, derandomize=True)
@given(data=st.data())
def test_nonnegative_tv_matches_the_sign_split_route(dim, data):
    """sigma and |Du| integrate their a.c. part as it is; the same measures
    without the declaration take integrate_abs, the route they replaced, and
    agree within the TV tolerance on the whole domain, and in 1-D on each
    quarter too.  Sigma's kinks are declared as breaks: a kink that no rule
    is told of can hide between a piece's end and its first node, on either
    route."""
    text, kinks = data.draw(nonnegative_cases(dim))
    scn = Scenario(parse_text(text))
    tol = 3e-7 if scn.is_cantor else 1e-9
    breaks = [*(cantor_breaks(scn.cantor_spec) if scn.is_cantor else ()), *kinks]
    for mu in (scn.field.sigma(scn.sigma_samples), scn.u.variation_measure()):
        assert mu.nonnegative
        signed = RadonMeasure(mu.domain, ac=mu.ac, ac_singular=mu.ac_singular, jumps=mu.jumps,
                              cantor=mu.cantor, cantor_density=mu.cantor_density)
        for box in [scn.domain.bounds, *(subboxes(scn.domain, 4) if dim == 1 else ())]:
            got = mu.total_variation(box, tol, tol, breaks)
            ref = signed.total_variation(box, tol, tol, breaks)
            assert abs(got - ref) <= tol + tol * abs(ref)


def test_linearity(dom):
    phi = plateau_bump([(-0.6, 0.6)], [(-0.3, 0.3)])
    m1 = lebesgue(dom, lambda p: p[:, 0] ** 2)
    m2 = point_mass(dom, 0.0, 1.0)
    a, b = 2.5, -1.25
    lhs = (a * m1 + b * m2).apply(phi)
    rhs = a * m1.apply(phi) + b * m2.apply(phi)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_sum_keeps_a_non_empty_singular_set_as_it_is():
    # the 2-D cells and the 1-D breaks of an a.c. integral come from
    # ac_singular: a sum keeps the one non-empty operand's set object, and
    # merges only two distinct non-empty sets
    d = box_domain((-1, 1), (-1, 1))
    line = RectifiableSet(2, pieces=[Segment(0, 0.0, -1, 1, +1)])
    other = RectifiableSet(2, pieces=[Segment(0, 0.5, -1, 1, +1)])
    plain, on_line = lebesgue(d), lebesgue(d, singular=line)
    assert plain.ac_singular.is_empty and plain.ac_singular.dim == 2
    assert (plain + plain).ac_singular.is_empty
    for m in (plain + on_line, on_line + plain, on_line + on_line,
              on_line + RadonMeasure.zero(d), 2.0 * on_line - plain):
        assert m.ac_singular is line
    merged = (on_line + lebesgue(d, singular=other)).ac_singular
    assert merged.component_keys() == line.component_keys() + other.component_keys()
    # in 1-D a point mass brings no set of its own
    jumps = RectifiableSet(1, [0.25], [1.0])
    d1 = interval_domain(-1.0, 1.0)
    assert (lebesgue(d1, singular=jumps) + point_mass(d1, 0.5, 1.0)).ac_singular is jumps


def test_part_orthogonality(dom):
    # a test function supported away from the singular parts sees only the
    # absolutely continuous integral
    d = interval_domain(-2.0, 2.0)
    mu = lebesgue(d) + point_mass(d, 0.0, 5.0)
    phi = plateau_bump([(1.0, 1.8)], [(1.2, 1.6)])
    ref = lebesgue(d).apply(phi)
    assert mu.apply(phi) == pytest.approx(ref, abs=1e-10)


def test_orientation_flip_flips_surface_sign():
    d = box_domain((-1, 1), (-1, 1))
    rect = RectifiableSet(2, pieces=[Segment(0, 0.0, -1, 1, +1)])
    g = lambda pts, nus: nus[:, 0] * 2.0
    mu = RadonMeasure.from_jump(d, rect, g)
    mu_f = RadonMeasure.from_jump(d, rect.flipped(), g)
    phi = plateau_bump([(-0.5, 0.5), (-0.5, 0.5)], [(-0.2, 0.2), (-0.2, 0.2)])
    assert mu.apply(phi) == pytest.approx(-mu_f.apply(phi), abs=1e-12)


def test_check_dominated_examples(dom):
    # a point mass under a point mass, x dx under dx, half the Cantor measure
    # under the whole
    three = point_mass(dom, 0.0, 3.0)
    one = point_mass(dom, 0.0, 1.0)
    assert check_dominated(three, one) is None

    d01 = interval_domain(0.0, 1.0)
    check_dominated(lebesgue(d01, lambda p: p[:, 0]), lebesgue(d01))

    dd = interval_domain(-0.5, 1.5)
    check_dominated(cantor_measure(dd, CantorPart(MIDDLE_THIRDS, 0.5)),
                    cantor_measure(dd, CantorPart(MIDDLE_THIRDS, 1.0)))


def test_check_dominated_violation(dom):
    mu = lebesgue(dom)
    sigma = point_mass(dom, 0.0, 1.0)
    with pytest.raises(AbsoluteContinuityError):
        check_dominated(mu, sigma)
    # sigma carries the part, but its density vanishes where mu's does not
    with pytest.raises(AbsoluteContinuityError, match="jump density"):
        check_dominated(point_mass(dom, 0.0, 1.0),
                        point_mass(dom, 0.0, 0.0))
    dd = interval_domain(-0.5, 1.5)
    with pytest.raises(AbsoluteContinuityError, match="Cantor density"):
        check_dominated(cantor_measure(dd, CantorPart(MIDDLE_THIRDS, 1.0)),
                        cantor_measure(dd, CantorPart(MIDDLE_THIRDS, 1.0),
                                       density=lambda x: (x < 0.5).astype(float)))
    # a part that sigma lacks has density 0
    with pytest.raises(AbsoluteContinuityError, match="jump density"):
        check_dominated(point_mass(dom, 0.0, 1.0), lebesgue(dom))
    with pytest.raises(AbsoluteContinuityError, match="Cantor density"):
        check_dominated(cantor_measure(dd, CantorPart(MIDDLE_THIRDS, 1.0)), lebesgue(dd))
    # 0 << 0: a Cantor divergence of mass 0 under a sigma whose Cantor part is 0
    check_dominated(cantor_measure(dd, CantorPart(MIDDLE_THIRDS, 0.0)),
                    cantor_measure(dd, CantorPart(MIDDLE_THIRDS, 0.0)))


def test_box_mass(dom):
    mu = point_mass(dom, 0.0, 2.0) + lebesgue(dom)
    assert mu.total_variation(((-0.25, 0.25),)) == pytest.approx(2.5)
    d2 = box_domain((-1, 1), (-1, 1))
    line = RadonMeasure.from_jump(
        d2, RectifiableSet(2, pieces=[Segment(0, 0.0, -1, 1, +1)]),
        lambda pts, nus: np.full(len(pts), 2.0))
    assert line.total_variation(((-0.25, 0.25), (-0.25, 0.25))) == pytest.approx(1.0, abs=1e-9)

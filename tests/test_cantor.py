from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divchain.cantor import (_WC, _XC, MIDDLE_THIRDS, CantorPart, IFSSpec, _cdf_middle_thirds,
                             _cylinder_left, cantor_function, construction_endpoints, ifs_cdf,
                             integrate_ifs, require_same_spec)
from divchain.errors import UnsupportedStructureError

from helpers import cantor_measure, interval_domain, midpoint_ifs, support_nodes


def ifs(f, lo=-np.inf, hi=np.inf, cuts=(), tol=1e-12, spec=MIDDLE_THIRDS):
    """integrate_ifs on one row: (value, error estimate)."""
    val, err = integrate_ifs(lambda x, rows: f(x), spec, [(lo, hi)], cuts, tol, tol)
    return float(val[0]), float(err[0])


def test_mean_by_symmetry():
    assert abs(ifs(lambda x: x)[0] - 0.5) < 1e-12


def test_second_moment():
    # E[X^2] = 3/8 for the middle-thirds measure (self-similarity recursion)
    assert abs(ifs(lambda x: x * x)[0] - 3.0 / 8.0) < 1e-12


def test_refinement_decay_is_geometric():
    vals = []
    for depth in (6, 8, 10, 12):
        xs, ws = support_nodes(MIDDLE_THIRDS, depth)
        vals.append(float(np.dot(np.sin(3 * xs), ws)))
    d1 = abs(vals[1] - vals[0])
    d2 = abs(vals[2] - vals[1])
    d3 = abs(vals[3] - vals[2])
    assert d2 < 0.5 * d1 and d3 < 0.5 * d2


def moments(n):
    """The measure's moments m_0..m_n on [0, 1], exactly, from
    m_n (1 - 3^-n) = 3^-n / 2 sum_{k<n} C(n, k) 2^(n-k) m_k."""
    m = [Fraction(1)]
    for j in range(1, n + 1):
        s = sum(comb(j, k) * 2 ** (j - k) * m[k] for k in range(j))
        m.append(Fraction(1, 2 * 3 ** j) * s / (1 - Fraction(1, 3 ** j)))
    return m


def test_rule_from_the_moments():
    # the Jacobi matrix of the orthogonal polynomials, built in exact
    # arithmetic from the moments (Stieltjes), then one float eigensolve
    # (Golub-Welsch): its eigenvalues are the nodes, the squared first
    # components of its eigenvectors the weights
    m = moments(8)
    inner = lambda p, q: sum(a * b * m[i + j] for i, a in enumerate(p) for j, b in enumerate(q))
    times_x = lambda p: [Fraction(0)] + p
    polys, alpha, beta = [[Fraction(1)]], [], []
    for k in range(4):
        p = polys[-1]
        alpha.append(inner(times_x(p), p) / inner(p, p))
        nxt = [c - alpha[-1] * d for c, d in zip(times_x(p), p + [0])]
        if k:
            beta.append(inner(p, p) / inner(polys[-2], polys[-2]))
            nxt = [c - beta[-1] * d for c, d in zip(nxt, polys[-2] + [0, 0])]
        polys.append(nxt)
    off = np.sqrt([float(b) for b in beta])
    nodes, vecs = np.linalg.eigh(np.diag([float(a) for a in alpha]) + np.diag(off, 1)
                                 + np.diag(off, -1))
    assert np.max(np.abs(nodes - _XC)) <= 1e-14
    assert np.max(np.abs(vecs[0] ** 2 - _WC)) <= 1e-14
    # and the rule integrates x^0..x^7 to the exact moments
    for n in range(8):
        assert abs(float(np.dot(_WC, _XC ** n)) - float(m[n])) <= 1e-14


@pytest.mark.parametrize("spec", [MIDDLE_THIRDS, IFSSpec(-0.3, 0.9)])
def test_rule_is_exact_to_degree_7_on_one_cylinder(spec):
    # the depth-3 cylinder whose s-interval is [5/8, 3/4]: its left end from
    # the construction, and the rule on it against the scaled moments
    w = spec.b - spec.a
    x0 = spec.a + w * _cylinder_left(np.array([0.625]))[0]
    assert x0 == pytest.approx(construction_endpoints(spec, 3)[2 * 5], abs=1e-15)
    h, m = w / 27.0, moments(7)
    rng = np.random.default_rng(7)
    for degree in range(8):
        c = rng.uniform(-1, 1, degree + 1)
        # \int p over the cylinder: 1/8 of sum_j c_j E[(x0 + h X)^j]
        exact = sum(c[j] * sum(comb(j, i) * x0 ** (j - i) * h ** i * float(m[i])
                               for i in range(j + 1)) for j in range(degree + 1)) / 8.0
        got = float(np.dot(_WC / 8.0, np.polyval(c[::-1], x0 + h * _XC)))
        assert got == pytest.approx(exact, abs=1e-14)
        # and on the whole base the route stops at the first rule
        whole = sum(c[j] * sum(comb(j, i) * spec.a ** (j - i) * w ** i * float(m[i])
                               for i in range(j + 1)) for j in range(degree + 1))
        val, err = ifs(lambda x: np.polyval(c[::-1], x), spec=spec)
        assert val == pytest.approx(whole, abs=1e-14) and err <= 1e-14


def piecewise(draw_coefs, cut):
    """A function with its own smooth branch on each side of cut."""
    (a0, a1, a2), (b0, b1, b2) = draw_coefs
    left = lambda x: a0 + a1 * np.sin(3 * x) + a2 * x * x
    right = lambda x: b0 + b1 * np.cos(2 * x) + b2 * x
    return (lambda x: np.where(x < cut, left(x), right(x))), left, right


# points of the Cantor set of [0, 1] (ternary digits 0 and 2), of its gaps,
# and of neither kind, where the branches may meet
CUT_POINTS = [0.25, 0.75, 1.0 / 10.0, 0.5, 0.4, 0.31, 0.9]
coefs = st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(c=st.tuples(coefs, coefs), cut=st.sampled_from(CUT_POINTS),
       window=st.tuples(st.sampled_from([-np.inf, -0.2, 0.05, 0.25, 0.3]),
                        st.sampled_from([np.inf, 1.2, 0.95, 0.75, 0.7])))
def test_gauss_route_matches_the_midpoint_reference(c, cut, window):
    # a function that jumps at cut, over a window: the rule at 1e-11 against
    # the midpoint sums of each branch over its side of the cut.  Around a
    # cut on the Cantor set, cylinders narrower than about 3^-33 of the base
    # are below the float spacing of x, so the cut is resolved to a mass of
    # about 2^-32 (ifs_cdf's limit too): a residue of that times the jump
    f, left, right = piecewise(c, cut)
    lo, hi = window
    val, err = ifs(f, lo, hi, (cut,), tol=1e-11)
    ref = sum(midpoint_ifs(g, MIDDLE_THIRDS, 1e-10, a, b, depth=12, max_depth=18)
              for g, a, b in ((left, lo, min(hi, cut)), (right, max(lo, cut), hi)))
    jump = abs(float(left(np.array([cut]))[0] - right(np.array([cut]))[0]))
    assert abs(val - ref) <= 1e-9 + 2.0 ** -30 * jump
    assert err <= 1e-11 * max(1.0, abs(val))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(coefs, coefs, st.sampled_from([-np.inf, 0.1, 0.25]),
                               st.sampled_from([np.inf, 0.75, 0.8])),
                     min_size=1, max_size=5),
       cut=st.sampled_from(CUT_POINTS), tol=st.sampled_from([1e-11, 1e-9, 3e-7]))
def test_rows_together_equal_each_row_alone(rows, cut, tol):
    # one integrate_ifs over every row against one call per row: bit-equal
    fns = [piecewise((a, b), cut)[0] for a, b, _, _ in rows]
    windows = [(lo, hi) for _, _, lo, hi in rows]
    f = lambda x, rs: np.concatenate([fns[r](x[rs == r]) for r in range(len(rows))])[
        np.argsort(np.argsort(rs, kind="stable"), kind="stable")]
    got = integrate_ifs(f, MIDDLE_THIRDS, windows, [cut], tol, tol)
    alone = [integrate_ifs(lambda x, rs, g=g: g(x), MIDDLE_THIRDS, [w], [cut], tol, tol)
             for g, w in zip(fns, windows)]
    assert got[0].tolist() == [float(v[0]) for v, _ in alone]
    assert got[1].tolist() == [float(e[0]) for _, e in alone]


def test_a_jump_on_the_cantor_set_splits_into_the_two_windows():
    # the route cut at 0.25 against the two windows that meet there, to the
    # float limit of a cut on the Cantor set (see the test above)
    f, left, right = piecewise(((1.0, 0.5, -1.0), (3.0, -0.2, 0.4)), 0.25)
    whole = ifs(f, cuts=(0.25,), tol=1e-11)[0]
    parts = ifs(left, hi=0.25, tol=1e-11)[0] + ifs(right, lo=0.25, tol=1e-11)[0]
    jump = abs(float(left(np.array([0.25]))[0] - right(np.array([0.25]))[0]))
    assert abs(whole - parts) <= 1e-10 + 2.0 ** -30 * jump


def test_cdf_values():
    C = cantor_function()
    got = C(np.array([0.0, 1.0 / 3.0, 0.5, 2.0 / 9.0, 1.0, -0.2, 1.7]))
    assert np.allclose(got, [0.0, 0.5, 0.5, 0.25, 1.0, 0.0, 1.0], atol=1e-12)


def test_cdf_monotone():
    C = cantor_function()
    xs = np.linspace(-0.1, 1.1, 2001)
    assert np.all(np.diff(C(xs)) >= -1e-15)


def test_general_spec_cdf_consistency():
    spec = IFSSpec(a=-1.0, b=3.0)
    C = cantor_function(spec)
    assert abs(C(np.array([-1.0 + 4.0 / 3.0]))[0] - 0.5) < 1e-12


def test_part_mass_and_tv():
    mu = cantor_measure(interval_domain(-0.5, 1.5), CantorPart(MIDDLE_THIRDS, -3.0))
    assert mu.total_variation() == 3.0
    assert abs(mu.apply_function(lambda p: np.ones(len(p))) + 3.0) < 1e-12


def test_interval_mass():
    mu = cantor_measure(interval_domain(-0.5, 1.5), CantorPart(MIDDLE_THIRDS, 1.0))
    first, gap = mu.total_variation([((0.0, 1.0 / 3.0),), ((0.4, 0.6),)])
    assert abs(first - 0.5) < 1e-12
    assert abs(gap) < 1e-12          # the central gap


def test_spec_mismatch_raises():
    with pytest.raises(UnsupportedStructureError):
        require_same_spec([CantorPart(MIDDLE_THIRDS, 1.0),
                           CantorPart(IFSSpec(a=0.0, b=2.0), 1.0)])


def test_invalid_spec():
    with pytest.raises(ValueError):
        IFSSpec(a=1.0, b=0.0)                    # reversed base
    with pytest.raises(ValueError):
        IFSSpec(a=0.5, b=0.5)                    # empty base
    with pytest.raises(ValueError):
        IFSSpec(a=0.0, b=np.inf)
    with pytest.raises(ValueError):
        IFSSpec(a=np.nan, b=1.0)


# Reference: the Cantor function of the float's exact value, from its ternary
# digits in exact rational arithmetic.  The digit loop stops at the first digit
# 1, at a zero remainder, or after 60 digits (a truncation below 2^-60).

def exact_cdf(v):
    if not v > 0.0:                               # also NaN
        return 0.0
    if v >= 1.0:
        return 1.0
    q, out, scale = Fraction(v), Fraction(0), Fraction(1, 2)
    for _ in range(60):
        q *= 3
        d = int(q)
        q -= d
        if d:
            out += scale
        if d == 1 or q == 0:
            break
        scale /= 2
    return float(out)


# |F(x) - F(y)| <= 2^-n when |x - y| <= 3^-n, so rounding x by 2^-53 can move
# F by about 2^-34.  The one-digit loop that the block lookup replaced was
# 5.8e-11 from exact on these points.
CDF_TOL = 2.0 ** -33

TRIADIC = [k / 3.0 ** j for j in range(1, 8) for k in range(3 ** j + 1)]
EDGES = [0.0, -0.0, 1.0, -0.3, 1.7, np.nan, np.inf, -np.inf,
         np.nextafter(0.0, 1.0), np.nextafter(0.0, -1.0),
         np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
         np.nextafter(1.0 / 3.0, 0.0), np.nextafter(1.0 / 3.0, 1.0),
         np.nextafter(2.0 / 3.0, 0.0), np.nextafter(2.0 / 3.0, 1.0)]


def _near_exact(x):
    got = _cdf_middle_thirds(x)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.shape == np.shape(x)
    want = np.array([exact_cdf(v) for v in np.ravel(x)]).reshape(np.shape(x))
    assert np.all(np.abs(got - want) <= CDF_TOL), (x, got, want)


def test_cdf_matches_exact_reference_on_edge_points():
    pts = np.array(TRIADIC + EDGES)
    _near_exact(pts)
    for v in pts:
        _near_exact(np.float64(v))                # 0-d input, 0-d output
    _near_exact(np.array(TRIADIC[:40]).reshape(8, 5))
    _near_exact(np.array([]))
    # outside (0, 1), NaN and infinities included, the values are set, not computed
    outside = np.array([0.0, -0.0, -0.3, -np.inf, np.nan, 1.0, 1.7, np.inf])
    assert _cdf_middle_thirds(outside).tolist() == [0, 0, 0, 0, 0, 1, 1, 1]
    assert _cdf_middle_thirds(np.float64(np.nan)).shape == ()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(-0.5, 1.5), st.sampled_from(TRIADIC + EDGES),
                          st.floats(allow_nan=True, allow_infinity=True)),
                min_size=1, max_size=60),
       st.sampled_from([0, 1, 2]))
def test_cdf_matches_exact_reference(vals, ndim):
    x = np.array(vals)
    if ndim == 0:
        x = x[0, ...]
    elif ndim == 2:
        x = x[: len(x) // 2 * 2].reshape(2, -1)
    _near_exact(x)


@settings(max_examples=100, deadline=None)
@given(p=st.integers(20, 52), k=st.integers(1, 8), frac=st.floats(0.0, 1.0))
def test_cdf_self_similar(p, k, frac):
    # F(x/3^k) = F(x)/2^k at x = 3^k j/2^p, where x/3^k = j/2^p is exact
    j = int(frac * (2 ** p - 1) / 3 ** k)
    y, x = np.array([j / 2.0 ** p]), np.array([3 ** k * j / 2.0 ** p])
    assert abs(2 ** k * _cdf_middle_thirds(y)[0] - _cdf_middle_thirds(x)[0]) <= CDF_TOL


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 8), digits=st.lists(st.booleans(), min_size=45, max_size=45))
def test_cdf_error_shrinks_with_the_argument(k, digits):
    # near a point of the Cantor set (ternary digits 0 and 2) the digits run
    # out late; below 3^-k the error is held to 2^-k of the bound, which the
    # 44 digits meet and a shorter expansion does not
    y = sum(2.0 * 3.0 ** -(i + 1) for i, two in enumerate(digits) if two) / 3.0 ** k
    assert abs(_cdf_middle_thirds(np.array([y]))[0] - exact_cdf(y)) <= CDF_TOL / 2 ** k


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.floats(0.5, 1.0),
                          st.sampled_from([t for t in TRIADIC if t >= 0.5])),
                min_size=1, max_size=30))
def test_cdf_symmetric(vals):
    # F(1 - x) = 1 - F(x) for x in [1/2, 1], where 1 - x is exact
    x = np.array(vals)
    err = _cdf_middle_thirds(1.0 - x) - (1.0 - _cdf_middle_thirds(x))
    assert np.all(np.abs(err) <= CDF_TOL)

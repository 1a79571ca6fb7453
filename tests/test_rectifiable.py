"""The piece list of a singular set against the parallel-array 1-D code it
replaced, the GeometryError cases, the (n, dim) normal contract, the
bracketed root solver against roots known in closed form (no scipy), and a
curve's box and disc ranges against the indicator bisection they replaced."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from divchain import (RadonMeasure, RectifiableSet, Segment, merge_sets,
                      plateau_bump)
from divchain.errors import GeometryError
from divchain.rectifiable import GraphCurve, bracketed_roots

from helpers import box_domain, interval_domain, scan_ranges_reference


class RefSet1D:
    """Reference: a 1-D singular set as parallel arrays of points and +-1
    scalar normals, as stored before the piece list."""

    def __init__(self, points, normals):
        pts = np.asarray(points, dtype=float)
        nus = np.asarray(normals, dtype=float)
        order = np.argsort(pts)
        self.points_1d, self.normals_1d = pts[order], nus[order]

    def component_keys(self):
        return [("p", round(x, 12)) for x in self.points_1d]

    def flipped(self):
        return RefSet1D(self.points_1d.copy(), -self.normals_1d)

    def integrate(self, density, box=None):
        total = 0.0
        for x, nu in zip(self.points_1d, self.normals_1d):
            if box is not None:
                (lo, hi), = box
                if not (lo <= x <= hi):
                    continue
            total += float(density(np.array([[x]]), np.array([nu]))[0])
        return total, 0.0

    def samples(self):
        return self.points_1d[:, None].copy(), self.normals_1d.copy()


def ref_merge(*sets):
    seen = {}
    for s in sets:
        for x, nu in zip(s.points_1d, s.normals_1d):
            k = round(float(x), 12)
            if k in seen and seen[k] != nu:
                raise GeometryError(f"conflicting orientation at shared point {x}")
            seen[k] = nu
    xs = sorted(seen)
    return RefSet1D(np.array(xs), np.array([seen[k] for k in xs]))


def density(pts, nus):
    # reads the normal in either layout: (n,) in the reference, (n, 1) now
    return np.sin(3.0 * pts[:, 0]) * np.ravel(nus) + pts[:, 0] ** 2


def abs_density(pts, nus):
    return np.abs(density(pts, nus))


# a small pool makes points shared between sets; the floats make them generic
POINT = st.one_of(st.sampled_from([-0.5, 0.0, 1.0 / 3.0, 0.7]),
                  st.floats(-1, 1, allow_nan=False))
SIGN = st.sampled_from([-1.0, 1.0])


@st.composite
def point_set(draw):
    xs = draw(st.lists(POINT, max_size=6, unique=True))
    nus = draw(st.lists(SIGN, min_size=len(xs), max_size=len(xs)))
    return xs, nus


def _outcome(fn):
    try:
        return fn()
    except GeometryError:
        return GeometryError


@settings(max_examples=150, deadline=None)
@given(point_set(), point_set(), st.floats(-1.2, 1.2), st.floats(0.0, 1.0),
       st.floats(0.0, 0.8))
def test_1d_piece_list_matches_parallel_arrays(a, b, lo, width, r):
    new, ref = RectifiableSet(1, *a), RefSet1D(*a)
    hi = lo + width
    # the box test is +-1e-13 now, exact before; keep points off that margin
    assume(not any(0 < a_ - x <= 1e-13 or 0 < x - b_ <= 1e-13
                   for x in a[0] for a_, b_ in ((lo, hi), (lo - r, lo + r))))

    assert np.array_equal(new.points_1d, ref.points_1d)
    assert new.component_keys() == ref.component_keys()
    mu = RadonMeasure.from_jump(interval_domain(-2, 2), new, density)
    if len(mu.jumps) == len(a[0]):      # no two points share a 12-digit key
        assert mu.total_variation() == ref.integrate(abs_density)[0]
        assert mu.total_variation(((lo, hi),)) == ref.integrate(abs_density, box=((lo, hi),))[0]
        assert mu.total_variation(((lo - r, lo + r),)) == \
            ref.integrate(abs_density, box=((lo - r, lo + r),))[0]

    pts, nus = new.samples()
    rpts, rnus = ref.samples()
    assert nus.shape == pts.shape == (len(a[0]), 1)
    assert np.array_equal(pts, rpts) and np.array_equal(nus[:, 0], rnus)

    flip, rflip = new.flipped(), ref.flipped()
    assert np.array_equal(flip.points_1d, rflip.points_1d)
    assert np.array_equal(flip.samples()[1][:, 0], rflip.normals_1d)

    assert list(mu.jumps) == list(dict.fromkeys(ref.component_keys()))

    merged = _outcome(lambda: merge_sets(new, RectifiableSet(1, *b)))
    rmerged = _outcome(lambda: ref_merge(ref, RefSet1D(*b)))
    if rmerged is GeometryError:
        assert merged is GeometryError
        return
    assert merged.component_keys() == rmerged.component_keys()
    assert np.array_equal(merged.samples()[1][:, 0], rmerged.normals_1d)
    # a merged point keeps its own abscissa, not the 12-digit key
    assert np.allclose(merged.points_1d, rmerged.points_1d, rtol=0, atol=1e-12)
    assert set(merged.points_1d) <= set(a[0]) | set(b[0])


def test_1d_box_margin_is_1e13():
    s = RectifiableSet(1, [1.0 + 5e-14, 1.0 + 1e-12], [1.0, 1.0])
    mu = RadonMeasure.from_jump(interval_domain(0, 2), s, lambda pts, nus: np.ones(len(pts)))
    assert mu.total_variation(((0.0, 1.0),)) == 1.0


def test_1d_normal_must_be_unit():
    with pytest.raises(GeometryError, match=r"\+-1"):
        RectifiableSet(1, [0.0, 0.5], [1.0, 0.5])


def test_1d_point_normal_count_mismatch():
    with pytest.raises(GeometryError, match="one normal per point"):
        RectifiableSet(1, [0.0, 0.5], [1.0])


def test_merge_rejects_conflicting_orientation_1d():
    with pytest.raises(GeometryError, match="conflicting orientation"):
        merge_sets(RectifiableSet(1, [0.0, 0.5], [1.0, 1.0]),
                   RectifiableSet(1, [0.5], [-1.0]))


def test_merge_rejects_conflicting_orientation_2d():
    seg = Segment(0, 0.0, -1, 1, +1)
    with pytest.raises(GeometryError, match="conflicting orientation"):
        merge_sets(RectifiableSet(2, pieces=[seg]), RectifiableSet(2, pieces=[seg.flipped()]))


@pytest.mark.parametrize("dim, apply, tv, box_tv", [(1, -0.5, 1.9, 1.9),
                                                      (2, -1.0, 2.0, 1.0)])
def test_jump_density_sees_n_by_dim_normals(dim, apply, tv, box_tv):
    if dim == 1:
        dom = interval_domain(-1, 1)
        rect = RectifiableSet(1, [-0.3, 0.2], [1.0, -1.0])
        phi = plateau_bump([(-0.6, 0.6)], [(-0.4, 0.4)])
    else:
        dom = box_domain((-1, 1), (-1, 1))
        rect = RectifiableSet(2, pieces=[Segment(0, 0.0, -1, 1, -1)])
        phi = plateau_bump([(-0.6, 0.6), (-0.6, 0.6)], [(-0.4, 0.4), (-0.4, 0.4)])
    calls = []

    def g(pts, nus):
        assert pts.shape == nus.shape == (len(pts), dim)
        calls.append(len(pts))
        return nus[:, 0] * (1.0 + pts[:, 0])

    mu = RadonMeasure.from_jump(dom, rect, g)
    assert mu.apply(phi) == pytest.approx(apply, abs=1e-9)
    assert mu.total_variation() == pytest.approx(tv, abs=1e-9)
    assert mu.total_variation([(-0.5, 0.5)] * dim) == pytest.approx(box_tv, abs=1e-9)
    assert calls


@st.composite
def separated_roots(draw):
    """Sorted roots at least 1e-3 apart in [-3, 3], each inside its own bracket."""
    cells = draw(st.lists(st.integers(-2999, 2999), min_size=1, max_size=6, unique=True))
    roots = np.sort([c * 1e-3 + draw(st.floats(-2e-4, 2e-4)) for c in cells])
    lo = roots - np.array([draw(st.floats(1e-6, 4e-4)) for _ in roots])
    hi = roots + np.array([draw(st.floats(1e-6, 4e-4)) for _ in roots])
    return roots, lo, hi


@settings(max_examples=150, deadline=None)
@given(separated_roots(), st.sampled_from([1.0, -2.5, 1e-3]), st.integers(0, 2))
def test_bracketed_roots_find_chosen_polynomial_roots(data, scale, extra):
    """p(x) = scale (x^2 + 1)^extra prod (x - r): every bracket holds one simple root."""
    roots, lo, hi = data
    calls = []

    def p(x):
        calls.append(len(x))
        return scale * (x * x + 1) ** extra * np.prod(x[:, None] - roots[None, :], axis=1)

    def p_live(x, live):      # x[j] lies in the bracket live[j]
        assert np.all((lo[live] <= x) & (x <= hi[live]))
        return p(x)

    got = bracketed_roots(p_live, lo, hi, p(lo), p(hi))
    assert np.all(np.abs(got - roots) <= 2e-14)
    # one call of f per step for every unsolved bracket, and at most the
    # bisection count for the widest bracket plus the spare steps
    assert max(calls[2:], default=0) <= len(roots)
    assert len(calls) - 2 <= np.ceil(np.log2(np.max(hi - lo) / 1e-14)) + 3


@settings(max_examples=50, deadline=None)
@given(st.floats(-2, 2), st.floats(1e-6, 1.0), st.floats(1e-6, 1.0),
       st.sampled_from([1.0, -1.0]))
def test_bracketed_roots_land_on_a_jump(jump, below, above, sign):
    def step(x):
        return sign * np.where(x < jump, -1.0, 2.0)

    a, b = np.array([jump - below]), np.array([jump + above])
    got = bracketed_roots(lambda x, live: step(x), a, b, step(a), step(b))
    assert abs(got[0] - jump) <= 2e-14


@pytest.mark.parametrize("left, right", [(5e-324, -1.0), (-1.0, 5e-324), (-5e-324, 5e-324)])
def test_bracketed_roots_keep_the_sign_of_a_subnormal_end(left, right):
    """Halving an end value of 5e-324 gives 0; the end must keep its sign."""
    def step(x):
        return np.where(x < 0.0, left, right)

    a, b = np.array([-0.3]), np.array([0.7])
    got = bracketed_roots(lambda x, live: step(x), a, b, step(a), step(b))
    assert abs(got[0]) <= 2e-14


def test_bracketed_roots_reject_a_non_finite_value():
    def f(x):           # -1 at x = 1, but not a number on (0.5, 1)
        return np.where(x > 0.5, np.nan, x + 0.5)

    with pytest.raises(GeometryError, match=r"^root search in \[0\.25, 1\.0\]: non-finite "
                                            r"value at 0\.57"):
        bracketed_roots(lambda x, live: f(x), np.array([-1.0, 0.25]), np.array([0.0, 1.0]),
                        np.array([-0.5, 0.75]), np.array([0.5, -1.0]))


def curve(kind, s0, s1, *c):
    """A cubic graph c0 + c1 x + c2 x^2 + c3 x^3, or a vertical or horizontal
    segment at c0, over [s0, s1]."""
    if kind == "graph":
        return GraphCurve(lambda x: c[0] + x * (c[1] + x * (c[2] + x * c[3])),
                          lambda x: c[1] + x * (2 * c[2] + 3 * x * c[3]), s0, s1)
    return Segment("vh".index(kind), c[0], s0, s1)


@st.composite
def curve_data(draw):
    """The arguments of curve()."""
    s0 = draw(st.floats(-1.5, 1.0))
    kind = draw(st.sampled_from(["graph", "v", "h"]))
    c = [draw(st.floats(-2.0, 2.0)) for _ in range(4 if kind == "graph" else 1)]
    return (kind, s0, s0 + draw(st.floats(0.05, 2.0)), *c)


@st.composite
def regions(draw):
    """("box", ((xlo, xhi), (ylo, yhi))) or ("disc", (center, r))."""
    if draw(st.booleans()):
        lo = [draw(st.floats(-2.0, 1.5)) for _ in range(2)]
        return "box", tuple((a, a + draw(st.floats(0.01, 2.5))) for a in lo)
    return "disc", ((draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))),
                    draw(st.floats(0.01, 2.0)))


def _reference_inside(piece, kind, data):
    """The indicators the curve ranges were bisected on, margins included,
    and the signed excess over the region's boundary (<= 0 inside)."""
    if kind == "box":
        (xlo, xhi), (ylo, yhi) = data

        def inside(s):
            p = piece.points(s)
            return ((p[:, 0] >= xlo - 1e-13) & (p[:, 0] <= xhi + 1e-13)
                    & (p[:, 1] >= ylo - 1e-13) & (p[:, 1] <= yhi + 1e-13))

        def excess(s):
            p = piece.points(s)
            return np.max([xlo - 1e-13 - p[:, 0], p[:, 0] - xhi - 1e-13,
                           ylo - 1e-13 - p[:, 1], p[:, 1] - yhi - 1e-13], axis=0)
        return inside, excess
    (cx, cy), r = data

    def inside(s):
        p = piece.points(s)
        return (p[:, 0] - cx) ** 2 + (p[:, 1] - cy) ** 2 <= r * r
    return inside, lambda s: np.hypot(piece.points(s)[:, 0] - cx, piece.points(s)[:, 1] - cy) - r


@settings(max_examples=300, deadline=None, derandomize=True)
@given(curve_data(), regions())
@example(("h", -1.0, 1.0, 0.25), ("box", ((-0.5, 0.5), (-0.75, 0.25))))        # on an edge
@example(("h", -1.0, 1.0, 0.25 + 1e-13), ("box", ((-0.5, 0.5), (-0.75, 0.25))))  # on the margin
@example(("v", -1.0, 1.0, 0.0), ("disc", ((1.0, 0.0), 0.5)))                   # a miss
@example(("v", 0.0, 1.0, 0.0), ("disc", ((0.0, 2.0), 1.0)))                    # a touch
@example(("graph", 0.0, 2.0, 0.0, 2.0, 0.0, 0.0), ("disc", ((1 / 64, 0.0), 1 / 64)))  # a run
def test_curve_ranges_match_indicator_bisection(data, region):
    """The same number of ranges, ends within 1e-13 max(1, |s|).  The one
    exception is a sliver, at most 1e-5 long, along which the curve runs
    within 1e-14 of the region's boundary: at a tangent touch the bisection
    may see a range of rounding where sign_crossings sees a grid zero."""
    piece = curve(*data)
    kind, data = region
    got = piece.ranges_in_box(data) if kind == "box" else piece.ranges_in_ball(*data)
    inside, excess = _reference_inside(piece, kind, data)
    want = scan_ranges_reference(piece, inside)

    def sliver(a, b):
        return b - a <= 1e-5 and np.max(np.abs(excess(np.linspace(a, b, 33)))) <= 1e-14

    got, want = ([r for r in rs if not sliver(*r)] for rs in (got, want))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for x, y in zip(g, w):
            assert abs(x - y) <= 1e-13 * max(1.0, abs(y)) or sliver(min(x, y), max(x, y))
    assert all(b < a for (_, b), (a, _) in zip(got, got[1:]))      # runs are merged



@pytest.mark.parametrize("kind", ["box", "disc"])
@pytest.mark.parametrize("piece", [Segment(0, 0.0, -1.0, 1.0),
                                   GraphCurve(lambda x: 0.3 * x - 2 / 3, lambda x: 0.3 + 0 * x,
                                              -0.9, 1.0)], ids=["vline", "graph"])
def test_ranges_in_a_region_narrower_than_the_scan_step(piece, kind):
    """A box or disc of half-width 1e-3 about (0, -2/3), on the curve and
    between two points of a 257-point scan over the whole curve (0.0078 and
    0.0074 apart): only the part of [s0, s1] the region allows is scanned."""
    r, c = 1e-3, np.array([0.0, -2 / 3])
    got = piece.ranges_in_box(tuple((v - r, v + r) for v in c)) if kind == "box" \
        else piece.ranges_in_ball(c, r)
    # the box is widened by 1e-13; along the graph, |x - c| = sqrt(1.09) |x1|
    slope = 0.3 if isinstance(piece, GraphCurve) else 0.0
    half = r + 1e-13 if kind == "box" else r / np.hypot(1.0, slope)
    want = (c[piece.s_axis] - half, c[piece.s_axis] + half)
    assert len(got) == 1
    assert got[0] == pytest.approx(want, rel=0, abs=1e-13)

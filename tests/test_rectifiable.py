"""The piece list of a singular set against the parallel-array 1-D code it
replaced, the GeometryError cases, the (n, dim) normal contract, and the
bracketed root solver against roots known in closed form (no scipy)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from divchain import (Domain, RadonMeasure, RectifiableSet, VerticalSegment, merge_sets,
                      plateau_bump)
from divchain.errors import GeometryError
from divchain.rectifiable import bracketed_roots


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

    def mass_in_ball(self, density, center, r):
        c = float(np.atleast_1d(center)[0])
        total = 0.0
        for x, nu in zip(self.points_1d, self.normals_1d):
            if abs(x - c) <= r:
                total += float(density(np.array([[x]]), np.array([nu]))[0])
        return total

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
    assume(not any(0 < lo - x <= 1e-13 or 0 < x - hi <= 1e-13 for x in a[0]))

    assert np.array_equal(new.points_1d, ref.points_1d)
    assert new.component_keys() == ref.component_keys()
    assert new.integrate(density) == ref.integrate(density)
    assert new.integrate(density, box=((lo, hi),)) == ref.integrate(density, box=((lo, hi),))
    assert new.mass_in_ball(density, [lo], r) == ref.mass_in_ball(density, [lo], r)

    pts, nus = new.samples()
    rpts, rnus = ref.samples()
    assert nus.shape == pts.shape == (len(a[0]), 1)
    assert np.array_equal(pts, rpts) and np.array_equal(nus[:, 0], rnus)

    flip, rflip = new.flipped(), ref.flipped()
    assert np.array_equal(flip.points_1d, rflip.points_1d)
    assert np.array_equal(flip.samples()[1][:, 0], rflip.normals_1d)

    keys = list(RadonMeasure.from_jump(Domain.interval(-2, 2), new, density).jumps)
    assert keys == list(dict.fromkeys(ref.component_keys()))

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
    v, _ = s.integrate(lambda pts, nus: np.ones(len(pts)), box=((0.0, 1.0),))
    assert v == 1.0


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
    seg = VerticalSegment(0.0, -1, 1, +1)
    with pytest.raises(GeometryError, match="conflicting orientation"):
        merge_sets(RectifiableSet(2, pieces=[seg]), RectifiableSet(2, pieces=[seg.flipped()]))


@pytest.mark.parametrize("dim, apply, tv, ball", [(1, -0.5, 1.9, -0.5),
                                                    (2, -1.0, 2.0, -1.0)])
def test_jump_density_sees_n_by_dim_normals(dim, apply, tv, ball):
    if dim == 1:
        dom = Domain.interval(-1, 1)
        rect = RectifiableSet(1, [-0.3, 0.2], [1.0, -1.0])
        phi = plateau_bump([(-0.6, 0.6)], [(-0.4, 0.4)])
    else:
        dom = Domain.box((-1, 1), (-1, 1))
        rect = RectifiableSet(2, pieces=[VerticalSegment(0.0, -1, 1, -1)])
        phi = plateau_bump([(-0.6, 0.6), (-0.6, 0.6)], [(-0.4, 0.4), (-0.4, 0.4)])
    calls = []

    def g(pts, nus):
        assert pts.shape == nus.shape == (len(pts), dim)
        calls.append(len(pts))
        return nus[:, 0] * (1.0 + pts[:, 0])

    mu = RadonMeasure.from_jump(dom, rect, g)
    assert mu.apply(phi) == pytest.approx(apply, abs=1e-9)
    assert mu.total_variation() == pytest.approx(tv, abs=1e-9)
    assert mu.ball_mass(np.zeros(dim), 0.5) == pytest.approx(ball, abs=1e-9)
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

    got = bracketed_roots(p, lo, hi, p(lo), p(hi))
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
    got = bracketed_roots(step, a, b, step(a), step(b))
    assert abs(got[0] - jump) <= 2e-14


def test_bracketed_roots_reject_a_non_finite_value():
    def f(x):           # -1 at x = 1, but not a number on (0.5, 1)
        return np.where(x > 0.5, np.nan, x + 0.5)

    with pytest.raises(GeometryError, match=r"^root search in \[0\.25, 1\.0\]: non-finite "
                                            r"value at 0\.57"):
        bracketed_roots(f, np.array([-1.0, 0.25]), np.array([0.0, 1.0]),
                        np.array([-0.5, 0.75]), np.array([0.5, -1.0]))

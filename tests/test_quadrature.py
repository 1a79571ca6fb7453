"""The quadrature engine against scipy's QUADPACK as an independent oracle."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from divchain import Domain, ParamField, PrimitiveField
from divchain.errors import IntegrationError
from divchain.quadrature import (CurvedCell, gauss, integrate_1d, integrate_cell,
                                 integrate_cells, integrate_polar, integrate_to_upper)


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


def test_curved_cell():
    cell = CurvedCell(0, 1, 0.0, lambda x: 1 + 0.5 * np.sin(np.pi * x))
    ref = quad(lambda x: x * (1 + 0.5 * np.sin(np.pi * x)) ** 2 / 2, 0, 1,
               epsabs=1e-13)[0]
    val, _ = integrate_cell(lambda p: p[:, 0] * p[:, 1], cell, tol_abs=1e-11)
    assert abs(val - ref) < 1e-10


def test_cells_sum():
    cells = [CurvedCell(0, 1, 0.0, 1.0), CurvedCell(1, 2, 0.0, 1.0)]
    val, _ = integrate_cells(lambda p: np.ones(len(p)), cells)
    assert abs(val - 2.0) < 1e-12


def test_polar_disc_area_and_half():
    val, _ = integrate_polar(lambda p: np.ones(len(p)), (0.3, -0.2), 0.5)
    assert abs(val - np.pi * 0.25) < 1e-10
    val, _ = integrate_polar(lambda p: np.ones(len(p)), (0, 0), 1.0,
                             half=(np.array([0.6, 0.8]), +1))
    assert abs(val - np.pi / 2) < 1e-10


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

def ref_to_upper(g, upper, kinks=()):
    """Scalar-valued g only; returns (F, the Gauss order where it stopped)."""
    upper = np.asarray(upper, dtype=float)
    sgn = np.sign(upper)
    lo = np.minimum(0.0, upper)
    hi = np.maximum(0.0, upper)
    edges = np.array([-np.inf] + sorted(set(float(k) for k in kinks)) + [np.inf])

    def compute(n):
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
        return sgn * acc

    prev = compute(8)
    n = 16
    while n <= 256:
        cur = compute(n)
        scale = np.maximum(np.max(np.abs(cur)), 1.0)
        if np.max(np.abs(cur - prev)) <= 1e-12 * scale:
            return cur, n
        prev = cur
        n *= 2
    raise IntegrationError("parameter quadrature did not stabilize")


@st.composite
def two_column_integrands(draw):
    """Column 0 is piecewise cubic with kinks at the declared kinks (exact at
    order 8, so it stops at 16); column 1 oscillates and needs 32 or more."""
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
    assert cols[0][1] == 16 and cols[1][1] >= 32
    got = integrate_to_upper(g, upper, kinks=kinks)
    assert got.shape == (len(upper), 2)
    assert np.array_equal(got, np.column_stack([c for c, _ in cols]))
    one = integrate_to_upper(lambda w: g(w)[:, 1], upper, kinks=kinks)
    assert one.shape == (len(upper),)
    assert np.array_equal(one, cols[1][0])


def test_to_upper_zero_limits_never_call_the_integrand():
    def g(w):
        raise AssertionError("integrand called")

    got = integrate_to_upper(g, np.zeros(3), kinks=[0.5])
    assert got.shape == (3,) and np.all(got == 0)
    dom = Domain.box((-1.0, 1.0), (-1.0, 1.0))
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
        integrate_cell(lambda p: np.where(p[:, 0] > 0.5, np.nan, 1.0), cell)
    x1, x2 = _named_abscissa(exc)
    assert 0.5 < x1 <= 1.0 and 0.0 <= x2 <= 1.0

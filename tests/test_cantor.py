from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divchain.cantor import (MIDDLE_THIRDS, CantorPart, IFSSpec, _cdf_middle_thirds,
                             cantor_function, ifs_cdf, integrate_ifs, require_same_spec,
                             support_nodes)
from divchain.errors import UnsupportedStructureError


def test_mean_by_symmetry():
    assert abs(integrate_ifs(lambda x: x, MIDDLE_THIRDS) - 0.5) < 1e-12


def test_second_moment():
    # E[X^2] = 3/8 for the middle-thirds measure (self-similarity recursion)
    assert abs(integrate_ifs(lambda x: x * x, MIDDLE_THIRDS) - 3.0 / 8.0) < 1e-9


def test_refinement_decay_is_geometric():
    vals = []
    for depth in (6, 8, 10, 12):
        xs, ws = support_nodes(MIDDLE_THIRDS, depth)
        vals.append(float(np.dot(np.sin(3 * xs), ws)))
    d1 = abs(vals[1] - vals[0])
    d2 = abs(vals[2] - vals[1])
    d3 = abs(vals[3] - vals[2])
    assert d2 < 0.5 * d1 and d3 < 0.5 * d2


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
    part = CantorPart(MIDDLE_THIRDS, -3.0)
    assert part.total_variation() == 3.0
    assert abs(part.apply(lambda x: np.ones_like(x)) + 3.0) < 1e-12


def test_interval_mass():
    part = CantorPart(MIDDLE_THIRDS, 1.0)
    assert abs(part.interval_mass(0.0, 1.0 / 3.0) - 0.5) < 1e-12
    assert abs(part.interval_mass(0.4, 0.6)) < 1e-12          # the central gap


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

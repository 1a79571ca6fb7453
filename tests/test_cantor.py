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
        IFSSpec(weights=(0.7, 0.7))
    with pytest.raises(ValueError):
        IFSSpec(offsets=(0.0, 0.2), ratio=0.4)   # overlapping maps


# Reference: the digit loop before only the undecided points were carried.
# Every pass runs over the whole array until no point is alive.

def ref_cdf_middle_thirds(x, depth=44):
    x = np.asarray(x, dtype=float)
    t = np.clip(x, 0.0, 1.0)
    out = np.zeros_like(t)
    saturated = x >= 1.0
    out[saturated] = 1.0
    scale = 0.5
    alive = ~saturated & (x > 0.0)
    for _ in range(depth):
        t = 3.0 * t
        d = np.floor(t)
        t = t - d
        hit = alive & (d == 1.0)
        out[hit] += scale
        alive = alive & ~hit
        out[alive & (d == 2.0)] += scale
        scale *= 0.5
        if not alive.any():
            break
    return out


def _same(x):
    got, want = _cdf_middle_thirds(x), ref_cdf_middle_thirds(x)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want), (x, got, want)


TRIADIC = [k / 3.0 ** j for j in range(1, 8) for k in range(3 ** j + 1)]
EDGES = [0.0, -0.0, 1.0, -0.3, 1.7, np.nan, np.inf, -np.inf,
         np.nextafter(0.0, 1.0), np.nextafter(0.0, -1.0),
         np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
         np.nextafter(1.0 / 3.0, 0.0), np.nextafter(1.0 / 3.0, 1.0),
         np.nextafter(2.0 / 3.0, 0.0), np.nextafter(2.0 / 3.0, 1.0)]


def test_cdf_digit_loop_matches_reference_on_edge_points():
    pts = np.array(TRIADIC + EDGES)
    _same(pts)
    for v in pts:
        _same(np.float64(v))                      # 0-d input, 0-d output
    _same(np.array(TRIADIC[:40]).reshape(8, 5))  # 2-d
    _same(np.array([]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(-0.5, 1.5), st.sampled_from(TRIADIC + EDGES),
                          st.floats(allow_nan=True, allow_infinity=True)),
                min_size=1, max_size=60),
       st.sampled_from([0, 1, 2]))
def test_cdf_digit_loop_matches_reference(vals, ndim):
    x = np.array(vals)
    if ndim == 0:
        x = x[0, ...]
    elif ndim == 2:
        x = x[: len(x) // 2 * 2].reshape(2, -1)
    _same(x)

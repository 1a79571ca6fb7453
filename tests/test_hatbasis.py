import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from divchain.conslaw.hatbasis import HatBasis, hat_derivative


# -- reference: clip every state into every piece -------------------------

def ref_cdf(w, y):
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    for a, b, p, q in w.pieces:
        c = np.clip(y, a, b)
        out = out + p * (c - a) + 0.5 * q * (c * c - a * a)
    return out


def ref_moment_cdf(w, y):
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    for a, b, p, q in w.pieces:
        c = np.clip(y, a, b)
        out = out + 0.5 * p * (c * c - a * a) + q * (c ** 3 - a ** 3) / 3.0
    return out


def ref_weighted_to_upper(w, g, u, order=12):
    u = np.asarray(u, dtype=float)
    x, wts = np.polynomial.legendre.leggauss(order)
    out = np.zeros_like(u)
    for a, b, p, q in w.pieces:
        c = np.clip(u, a, b)
        half = 0.5 * (c - a)
        mid = 0.5 * (c + a)
        acc = np.zeros_like(u)
        for xi, wi in zip(x, wts):
            v = mid + half * xi
            acc = acc + wi * (p + q * v) * np.asarray(g(v), dtype=float)
        out = out + half * acc
    return out


@st.composite
def weight_and_states(draw):
    lo = draw(st.floats(-2.0, 1.0))
    hi = lo + draw(st.floats(0.5, 4.0))
    basis = HatBasis(lo, hi, draw(st.integers(1, 6)))
    j = draw(st.integers(0, len(basis) - 1))
    nodes = basis.nodes
    if draw(st.booleans()):
        w = basis.hats[j]
    else:
        w = hat_derivative(nodes[j], nodes[j + 1], nodes[j + 2])
    # exact node values, values a hair off a node, and values below the
    # first and above the last node
    node = st.sampled_from(list(nodes))
    nudge = st.one_of(st.floats(-1e-6, 1e-6), st.integers(-8, 8).map(lambda k: k * 1e-15))
    state = st.one_of(node, st.floats(lo - 1.0, hi + 1.0),
                      st.builds(lambda n, e: n + e, node, nudge))
    ys = draw(st.lists(state, min_size=1, max_size=40))
    ys = ys + ys[:draw(st.integers(0, len(ys)))]  # repeats
    return w, np.array(ys)


def _close(new, ref):
    assert new.shape == ref.shape
    assert np.all(np.abs(new - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))


@settings(max_examples=150, deadline=None)
@given(weight_and_states(), st.floats(0.1, 3.0))
def test_clipped_integrals_match_reference(wy, k):
    w, y = wy
    _close(w.cdf(y), ref_cdf(w, y))
    _close(w.moment_cdf(y), ref_moment_cdf(w, y))
    poly = lambda v: k * v * (1 - v)
    for g in (poly, np.exp):
        _close(w.weighted_to_upper(g, y), ref_weighted_to_upper(w, g, y))
    # a declared degree d takes ceil((d + 2) / 2) points, exact for w g
    cubic = lambda v: v ** 3 - k * v
    for g, d in ((poly, 2), (cubic, 3), (lambda v: k * v, 1), (lambda v: k + 0 * v, 0)):
        _close(w.weighted_to_upper(g, y, degree=d), ref_weighted_to_upper(w, g, y))


def test_scalar_state_keeps_shape():
    w = HatBasis(0.0, 1.0, 3).hats[1]
    for y in (0.3, 0.5, 2.0, -1.0):
        got = w.weighted_to_upper(np.exp, y)
        assert np.shape(got) == ()
        _close(got, ref_weighted_to_upper(w, np.exp, y))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divchain.conslaw.hatbasis import HatBasis, PiecewiseLinearWeight


# -- reference: one weight at a time -------------------------------------
# The code the weight families replaced: each hat is its own object, and
# the kinetic references in test_conslaw.py assemble from these.

class PerHatWeight:
    """w(v) = p_j + q_j v on [a_j, b_j] (disjoint, sorted), zero elsewhere."""

    def __init__(self, pieces):
        self.pieces = [(float(a), float(b), float(p), float(q)) for a, b, p, q in pieces]

    def val(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for a, b, p, q in self.pieces:
            m = (x >= a) & (x <= b)
            out = np.where(m, p + q * x, out)
        return out

    def integral(self):
        tot = 0.0
        for a, b, p, q in self.pieces:
            tot += p * (b - a) + 0.5 * q * (b * b - a * a)
        return tot

    def _below(self, y, part):
        y = np.asarray(y, dtype=float)
        flat = y.ravel()
        out = np.zeros_like(flat)
        for a, b, p, q in self.pieces:
            full = flat >= b
            if full.any():
                out[full] += part(a, b, p, q)
            inside = np.flatnonzero((flat > a) & (flat < b))
            if inside.size:
                out[inside] += part(a, flat[inside], p, q)
        return out.reshape(y.shape)

    def cdf(self, y):
        return self._below(y, lambda a, c, p, q: p * (c - a) + 0.5 * q * (c * c - a * a))

    def moment_cdf(self, y):
        return self._below(
            y, lambda a, c, p, q: 0.5 * p * (c * c - a * a) + q * (c ** 3 - a ** 3) / 3.0)

    def min_integral(self, u):
        u = np.asarray(u, dtype=float)
        return self.moment_cdf(u) + u * (self.integral() - self.cdf(u))

    def upper_integral(self, u):
        return self.integral() - self.cdf(np.asarray(u, dtype=float))

    def weighted_to_upper(self, g, u, degree=None):
        x, wts = np.polynomial.legendre.leggauss(12 if degree is None else (degree + 3) // 2)

        def part(a, c, p, q):
            half, mid = 0.5 * (c - a), 0.5 * (c + a)
            vs = [mid + half * xi for xi in x]
            return half * sum(wi * (p + q * v) * np.asarray(g(v), dtype=float)
                              for v, wi in zip(vs, wts))

        return self._below(u, part)


def hat(l, m, r):
    pieces = []
    if m > l:
        pieces.append((l, m, -l / (m - l), 1.0 / (m - l)))
    if r > m:
        pieces.append((m, r, r / (r - m), -1.0 / (r - m)))
    return PerHatWeight(pieces)


def hat_derivative(l, m, r):
    pieces = []
    if m > l:
        pieces.append((l, m, 1.0 / (m - l), 0.0))
    if r > m:
        pieces.append((m, r, -1.0 / (r - m), 0.0))
    return PerHatWeight(pieces)


def per_hat(nodes, weight=hat):
    """The interior hats (or their derivatives) on nodes, one object each."""
    return [weight(nodes[j - 1], nodes[j], nodes[j + 1]) for j in range(1, len(nodes) - 1)]


# -- reference: mask every (row, state) pair of a piece column -------------
# The route PiecewiseLinearWeight._below replaced: per piece column, one
# (n_weights, n_states) comparison mask for the wholly-below pieces and a
# 2-D nonzero for the pairs with the state inside the piece.  It needs no
# sorted columns.

def mask_below(self, y, whole, part):
    y = np.asarray(y, dtype=float)
    flat = y.ravel()
    out = np.zeros((len(self.a), flat.size))
    for j in range(self.a.shape[1]):
        a, b = self.a[:, j, None], self.b[:, j, None]
        np.add(out, whole[:, j, None], out=out, where=flat >= b)
        rows, at = np.nonzero((flat > a) & (flat < b))
        if rows.size:
            out[rows, at] += part(rows, j, flat[at])
    return out.reshape(out.shape[:1] + y.shape)


class MaskedWeight(PiecewiseLinearWeight):
    _below = mask_below


# -- reference: clip every state into every piece -------------------------

def rows(family):
    """Each weight of a family as its list of (a, b, p, q) pieces."""
    return [list(zip(*(v[i] for v in (family.a, family.b, family.p, family.q))))
            for i in range(len(family.a))]


def ref_cdf(pieces, y):
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    for a, b, p, q in pieces:
        c = np.clip(y, a, b)
        out = out + p * (c - a) + 0.5 * q * (c * c - a * a)
    return out


def ref_moment_cdf(pieces, y):
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    for a, b, p, q in pieces:
        c = np.clip(y, a, b)
        out = out + 0.5 * p * (c * c - a * a) + q * (c ** 3 - a ** 3) / 3.0
    return out


def ref_weighted_to_upper(pieces, g, u, order=12):
    u = np.asarray(u, dtype=float)
    x, wts = np.polynomial.legendre.leggauss(order)
    out = np.zeros_like(u)
    for a, b, p, q in pieces:
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
def basis_and_states(draw):
    # hypothesis favours short binary fractions, whose cubes are exact, so
    # the ends are seeded uniform draws
    seed = draw(st.integers(0, 2 ** 32 - 1))
    lo, span = np.random.default_rng(seed).uniform((-2.0, 0.5), (1.0, 4.0))
    hi = lo + span
    basis = HatBasis(lo, hi, draw(st.integers(1, 6)))
    # exact node values, values a hair off a node, and values below the
    # first and above the last node
    node = st.sampled_from(list(basis.nodes))
    nudge = st.one_of(st.floats(-1e-6, 1e-6), st.integers(-8, 8).map(lambda k: k * 1e-15))
    state = st.one_of(node, st.floats(lo - 1.0, hi + 1.0),
                      st.builds(lambda n, e: n + e, node, nudge))
    ys = draw(st.lists(state, min_size=1, max_size=40))
    ys = ys + ys[:draw(st.integers(0, len(ys)))]  # repeats
    return basis, np.array(ys)


@st.composite
def weight_and_states(draw):
    """One row of one family, as a one-row family, with states for it."""
    basis, y = draw(basis_and_states())
    family = basis.hats if draw(st.booleans()) else basis.derivatives
    j = draw(st.integers(0, len(family.a) - 1))
    pieces = (v[j:j + 1] for v in (family.a, family.b, family.p, family.q))
    return PiecewiseLinearWeight(*pieces), y


def _close(new, ref):
    assert new.shape == ref.shape
    assert np.all(np.abs(new - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))


@settings(max_examples=150, deadline=None)
@given(weight_and_states(), st.floats(0.1, 3.0))
def test_clipped_integrals_match_reference(wy, k):
    w, y = wy
    pieces, = rows(w)
    _close(w.cdf(y)[0], ref_cdf(pieces, y))
    _close(w.moment_cdf(y)[0], ref_moment_cdf(pieces, y))
    poly = lambda v: k * v * (1 - v)
    for g in (poly, np.exp):
        _close(w.weighted_to_upper(g, y)[0], ref_weighted_to_upper(pieces, g, y))
    # a declared degree d takes ceil((d + 2) / 2) points, exact for w g
    cubic = lambda v: v ** 3 - k * v
    for g, d in ((poly, 2), (cubic, 3), (lambda v: k * v, 1), (lambda v: k + 0 * v, 0)):
        _close(w.weighted_to_upper(g, y, degree=d)[0], ref_weighted_to_upper(pieces, g, y))


# g evaluated on one node and on an array of nodes gives the same bits for
# these (numpy's pow need not: `v ** 3` on an array can differ in the last
# bit from `v ** 3` on a scalar, so the cubic is a product)
QUADRATIC = lambda v: 1.5 * v * (1 - v)
G_AND_DEGREE = [(lambda v: 1.5 + 0 * v, 0), (lambda v: 1.5 * v, 1), (QUADRATIC, 2),
                (lambda v: v * v * v - 1.5 * v, 3), (QUADRATIC, None), (np.exp, None)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(basis_and_states())
def test_families_equal_the_per_hat_reference(by):
    basis, y = by
    for family, weight in ((basis.hats, hat), (basis.derivatives, hat_derivative)):
        refs = per_hat(basis.nodes, weight)
        assert np.array_equal(family.integral(), [w.integral() for w in refs])
        grid = np.linspace(basis.nodes[0] - 1.0, basis.nodes[-1] + 1.0, 64)
        for u in (np.concatenate([y, grid]), float(y[0])):
            # \\int w min(v, u) as the kinetic assembly composes it
            got = {"val": family.val(u), "cdf": family.cdf(u),
                   "moment_cdf": family.moment_cdf(u),
                   "min_integral": family.moment_cdf(u) + u * family.upper_integral(u),
                   "upper_integral": family.upper_integral(u)}
            for g, degree in G_AND_DEGREE:
                got[g, degree] = family.weighted_to_upper(g, u, degree)
            for key, rows_got in got.items():
                assert rows_got.shape == (len(refs),) + np.shape(u), key
                for w, row in zip(refs, rows_got):
                    if isinstance(key, tuple):
                        want = w.weighted_to_upper(key[0], u, key[1])
                    else:
                        want = getattr(w, key)(u)
                    assert np.array_equal(row, want), key


def test_scalar_state_keeps_shape():
    family = HatBasis(0.0, 1.0, 3).hats
    for y in (0.3, 0.5, 2.0, -1.0):
        got = family.weighted_to_upper(np.exp, y)
        assert got.shape == (3,)
        for i, pieces in enumerate(rows(family)):
            _close(got[i], ref_weighted_to_upper(pieces, np.exp, y))


@st.composite
def family_and_states(draw):
    """A family of a basis, sometimes one with a node at 0.0, and states with
    exact node values, +-0.0, values beyond the nodes, infinities and
    repeats."""
    if draw(st.booleans()):
        basis, y = draw(basis_and_states())
    else:
        basis = HatBasis(-1.0, 1.0, 2 * draw(st.integers(1, 3)) - 1)
        y = np.array(draw(st.lists(st.sampled_from(list(basis.nodes)), min_size=1)))
    family = basis.hats if draw(st.booleans()) else basis.derivatives
    lo, hi = basis.nodes[0], basis.nodes[-1]
    extra = [0.0, -0.0, lo - 0.5, hi + 0.5, -1e300, 1e300, -np.inf, np.inf]
    y = np.concatenate([y, basis.nodes, draw(st.lists(st.sampled_from(extra), max_size=8))])
    return family, draw(st.permutations(np.concatenate([y, y[:draw(st.integers(0, len(y)))]])))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(family_and_states())
def test_bisection_equals_the_mask_reference(fy):
    family, y = fy
    ref = MaskedWeight(family.a, family.b, family.p, family.q)
    for u in (np.array(y), np.array(y).reshape(1, -1), float(y[0])):
        for name in ("cdf", "moment_cdf", "upper_integral"):
            got, want = getattr(family, name)(u), getattr(ref, name)(u)
            assert got.shape == want.shape == (len(family.a),) + np.shape(u), name
            assert np.array_equal(got, want), name
        for g, degree in G_AND_DEGREE:
            got, want = family.weighted_to_upper(g, u, degree), ref.weighted_to_upper(g, u, degree)
            assert np.array_equal(got, want), degree


def test_unsorted_piece_columns_are_refused():
    family = HatBasis(0.0, 1.0, 3).hats
    a, b, p, q = family.a, family.b, family.p, family.q
    swap = [1, 0, 2]
    with pytest.raises(ValueError, match="sorted partition"):
        PiecewiseLinearWeight(a[swap], b[swap], p[swap], q[swap])
    # overlapping pieces in one column, and a piece that ends before it starts
    wide = b.copy()
    wide[0, 0] += 0.01
    with pytest.raises(ValueError, match="sorted partition"):
        PiecewiseLinearWeight(a, wide, p, q)
    with pytest.raises(ValueError, match="sorted partition"):
        PiecewiseLinearWeight(b[:1], a[:1], p[:1], q[:1])

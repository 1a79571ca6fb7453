import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from divchain import BVFunction
from divchain.conslaw import FluxSpec
from divchain.conslaw.solver import _critical_table, _sweep, face_fluxes
from divchain.exprs import compile_uv
from divchain.scenario import load

from conftest import ZEROS
from helpers import bundled_path, interval_domain

DOM = interval_domain(-1.0, 1.0)


def faces(F, u):
    """F at the cell averages u, as the sweep calls it: u in a buffer of
    F.width columns, with a zero-gradient ghost cell at each end and room for
    F's scratch cells after them."""
    n = u.shape[-1]
    buf = np.zeros(u.shape[:-1] + (F.width,))
    buf[..., 1:n + 1] = u
    buf[..., 0], buf[..., n + 1] = u[..., 0], u[..., -1]
    return F(buf)


# -- reference: closed-form Godunov fluxes for f(u) = alpha u^2 + beta u ---

def _f(alpha, beta, u):
    return alpha * u * u + beta * u


def godunov_fluxes(u, alpha, beta, u_lo, u_hi):
    """Numerical fluxes on the n+1 faces of n cells (zero-gradient ghosts).

    Same-coefficient faces use the classical Godunov min/max over the
    Riemann interval; faces where (alpha, beta) jump use the demand/supply
    coupling min(D_left(uL), S_right(uR)).
    """
    uL = np.concatenate([u[:1], u])
    uR = np.concatenate([u, u[-1:]])
    aL = np.concatenate([alpha[:1], alpha])
    aR = np.concatenate([alpha, alpha[-1:]])
    bL = np.concatenate([beta[:1], beta])
    bR = np.concatenate([beta, beta[-1:]])

    same = (aL == aR) & (bL == bR)

    # classical Godunov for the shared flux
    fl = _f(aL, bL, uL)
    fr = _f(aL, bL, uR)
    crit = np.where(aL != 0.0, -bL / np.where(aL == 0.0, 1.0, 2.0 * aL), np.inf)
    lo = np.minimum(uL, uR)
    hi = np.maximum(uL, uR)
    has_crit = (aL != 0.0) & (crit > lo) & (crit < hi)
    fc = _f(aL, bL, np.where(has_crit, crit, uL))
    fmin = np.minimum(fl, fr)
    fmin = np.where(has_crit, np.minimum(fmin, fc), fmin)
    fmax = np.maximum(fl, fr)
    fmax = np.where(has_crit, np.maximum(fmax, fc), fmax)
    f_same = np.where(uL <= uR, fmin, fmax)

    # demand/supply coupling across coefficient jumps
    critL = np.where(aL != 0.0, -bL / np.where(aL == 0.0, 1.0, 2.0 * aL), np.inf)
    critR = np.where(aR != 0.0, -bR / np.where(aR == 0.0, 1.0, 2.0 * aR), np.inf)
    D = np.maximum(_f(aL, bL, uL), _f(aL, bL, u_lo))
    inL = (aL != 0.0) & (critL > u_lo) & (critL < uL)
    D = np.where(inL, np.maximum(D, _f(aL, bL, np.where(inL, critL, uL))), D)
    S = np.maximum(_f(aR, bR, uR), _f(aR, bR, u_hi))
    inR = (aR != 0.0) & (critR > uR) & (critR < u_hi)
    S = np.where(inR, np.maximum(S, _f(aR, bR, np.where(inR, critR, uR))), S)
    f_iface = np.minimum(D, S)

    return np.where(same, f_same, f_iface)


def quadratic_flux(pieces, u_range):
    """Ahat(k, u) = alpha u^2 + beta u with (alpha, beta) = pieces[k], k = 0, 1, ..."""
    a = np.array([p[0] for p in pieces], dtype=float)
    b = np.array([p[1] for p in pieces], dtype=float)

    def coeffs(k):
        i = np.asarray(k, dtype=float).astype(int)
        return a[i], b[i]

    def ahat(k, u):
        alpha, beta = coeffs(k)
        return _f(alpha, beta, np.asarray(u, dtype=float))

    def dahat_du(k, u):
        alpha, beta = coeffs(k)
        return 2.0 * alpha * np.asarray(u, dtype=float) + beta

    def critical(kv):
        alpha, beta = coeffs(kv)
        return (-beta / (2.0 * alpha),) if alpha != 0.0 else ()

    k = BVFunction.piecewise_1d(DOM, [], values=[ZEROS], grads=[ZEROS])
    return FluxSpec(k, ahat, dahat_du, u_range, critical=critical), a, b


def setup_problem(n=200):
    x = np.linspace(-1, 1, n)
    u0 = 0.4 + 0.2 * np.exp(-40 * (x + 0.4) ** 2)
    kvals = np.where(x < 0.5, 0.0, 1.0)
    flux, _, _ = quadratic_flux([(-1.0, 1.0), (-0.6, 0.6)], (0.0, 1.0))
    return u0, kvals, flux


def test_python_kernel_conserves_interior_mass():
    u0, kvals, flux = setup_problem()
    lam, nsteps = 0.45, 50
    F = face_fluxes(flux, kvals)
    (out,), (final,) = _sweep(F, [u0], lam, nsteps, slice(None))
    assert np.all(final == out[-1])
    F_first = faces(F, out[0])
    # constant states near both boundaries: boundary fluxes are steady, so
    # the total mass changes exactly by the boundary in/outflow
    expected = nsteps * lam * (F_first[0] - F_first[-1])
    assert abs(out[-1].sum() - out[0].sum() - expected) < 1e-10 * len(u0)


def test_demand_supply_matches_classical_for_concave():
    # same-coefficient faces: the coupling formula must coincide with the
    # classical Godunov min/max for a concave single-max flux
    rng = np.random.default_rng(42)
    flux, _, _ = quadratic_flux([(-1.0, 1.0)], (0.0, 1.0))
    F = face_fluxes(flux, np.zeros(2))
    f = lambda u: -u * u + u
    for _ in range(200):
        uL, uR = rng.uniform(0, 1, 2)
        got = faces(F, np.array([uL, uR]))[1]
        if uL <= uR:
            ref = min(f(w) for w in [uL, uR] + ([0.5] if uL < 0.5 < uR else []))
        else:
            ref = max(f(w) for w in [uL, uR] + ([0.5] if uR < 0.5 < uL else []))
        assert got == pytest.approx(ref, abs=1e-14)


def test_transonic_burgers_flux():
    # convex flux with the critical point inside: classical Godunov picks it
    flux, _, _ = quadratic_flux([(0.5, 0.0)], (-1.0, 1.0))
    assert faces(face_fluxes(flux, np.zeros(2)), np.array([-1.0, 1.0]))[1] == 0.0


# -- face fluxes against the closed form, by hypothesis --------------------

# no subnormal alpha: its critical point -beta / (2 alpha) would overflow
coef = st.one_of(st.sampled_from([0.0, -1.0, 1.0, 0.5]),
                 st.floats(-3.0, 3.0).filter(lambda c: abs(c) >= 1e-3))


@st.composite
def quadratic_problem(draw):
    lo = draw(st.floats(-2.0, 0.5))
    hi = lo + draw(st.floats(0.25, 3.0))
    pieces = [(draw(coef), draw(coef)) for _ in range(2)]
    n = draw(st.integers(1, 8))
    # one interface after cell `cut`, or none when cut == n
    cut = draw(st.integers(1, n))
    kvals = np.where(np.arange(n) < cut, 0.0, 1.0)
    state = st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi))
    u = np.array(draw(st.lists(state, min_size=n, max_size=n)))
    return pieces, (lo, hi), kvals, u


@settings(max_examples=300, deadline=None)
@given(quadratic_problem())
def test_face_fluxes_match_closed_form(problem):
    pieces, u_range, kvals, u = problem
    # the closed form couples faces where (alpha, beta) jump, the sweep
    # faces where k jumps
    assume(pieces[0] != pieces[1] or not kvals.any())
    flux, a, b = quadratic_flux(pieces, u_range)
    i = kvals.astype(int)
    ref = godunov_fluxes(u, a[i], b[i], *u_range)
    got = faces(face_fluxes(flux, kvals), u)
    assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))
    # and equal to the face-by-face reference (a zero's sign may differ at a
    # jump face whose two maxima are zeros of opposite signs)
    assert np.array_equal(got, reference_face_fluxes(flux, kvals)(u))


# -- the multi-row sweep against the one-row, face-by-face reference ---------

def reference_face_fluxes(flux, kvals):
    """Face fluxes of one row with Ahat evaluated on the faces: at
    (k_left, u_left) and (k_left, u_right) on every face and at
    (k_right, u_right) on the jump faces, critical points looked up face by
    face."""
    lo, hi = flux.u_range
    kL = np.concatenate([kvals[:1], kvals])
    kR = np.concatenate([kvals, kvals[-1:]])
    jump = np.flatnonzero(np.abs(kL - kR) > 1e-12)

    def table(kv):
        crit = [tuple(flux.critical(k)) for k in kv]
        t = np.full((max([len(c) for c in crit] + [0]), len(kv)), np.nan)
        for i, c in enumerate(crit):
            t[:len(c), i] = c
        return t, [flux.flux_at(kv, np.where(np.isnan(c), lo, c)) for c in t]

    critL, fcritL = table(kL)
    critRj, fcritRj = table(kR[jump])

    def F(u):
        uL = np.concatenate([u[:1], u])
        uR = np.concatenate([u, u[-1:]])
        flo, fhi = np.minimum(uL, uR), np.maximum(uL, uR)
        fl = flux.flux_at(kL, uL)
        fr = flux.flux_at(kL, uR)
        fmin, fmax = np.minimum(fl, fr), np.maximum(fl, fr)
        for c, fc in zip(critL, fcritL):
            ok = (c > flo) & (c < fhi)
            fmin = np.where(ok, np.minimum(fmin, fc), fmin)
            fmax = np.where(ok, np.maximum(fmax, fc), fmax)
        out = np.where(uL <= uR, fmin, fmax)
        if len(jump):
            uLj, uRj = uL[jump], uR[jump]
            D = np.maximum(fl[jump], flux.flux_at(kL[jump], lo))
            for c, fc in zip(critL[:, jump], [fc[jump] for fc in fcritL]):
                D = np.where((c > lo) & (c < uLj), np.maximum(D, fc), D)
            S = np.maximum(flux.flux_at(kR[jump], uRj), flux.flux_at(kR[jump], hi))
            for c, fc in zip(critRj, fcritRj):
                S = np.where((c > uRj) & (c < hi), np.maximum(S, fc), S)
            out[jump] = np.minimum(D, S)
        return out

    return F


def reference_sweep(F, u0, lam, nsteps):
    """One row, one step at a time: shape (nsteps + 1, ncells)."""
    u = np.array(u0, dtype=float)
    out = np.empty((nsteps + 1, len(u)))
    out[0] = u
    for n in range(nsteps):
        Fu = F(u)
        u = u - lam * (Fu[1:] - Fu[:-1])
        out[n + 1] = u
    return out


def shifted_flux():
    """Ahat(k, u) = u (k - u): concave, with its maximum at u = k/2."""
    k = BVFunction.piecewise_1d(DOM, [], values=[lambda x: np.ones_like(x)], grads=[ZEROS])
    return FluxSpec(k, lambda kk, u: np.asarray(u) * (np.asarray(kk) - np.asarray(u)),
                    lambda kk, u: np.asarray(kk) - 2.0 * np.asarray(u),
                    u_range=(0.0, 1.0), critical=lambda kv: (0.5 * float(kv),))


def uv_flux(ahat, dahat_du, critical):
    """A flux compiled as a scenario compiles it (compile_uv), so that the
    sweep evaluates its Ahat into buffers."""
    k = BVFunction.piecewise_1d(DOM, [], values=[lambda x: np.ones_like(x)], grads=[ZEROS])
    return FluxSpec(k, compile_uv(ahat)[0], compile_uv(dahat_du)[0], u_range=(0.0, 1.0),
                    critical=critical)


# name -> (flux, sup |dAhat/du| for k in [1, 2] and u in [0, 1])
FLUXES = {
    # a plain Python callable, with its maximum at k/2
    "shifted": (shifted_flux(), 2.0),
    # transcendental and monotone (and bounded, so no state that piles up at a
    # jump whose right side carries less overflows it)
    "exp": (uv_flux("k*(1-exp(-u))", "k*exp(-u)", lambda kv: ()), 2.0),
    # transcendental, with two interior critical points at k/4 and 3k/4 when k < 4/3
    "sine": (uv_flux("k*sin(2*pi*u/k)", "2*pi*cos(2*pi*u/k)", lambda kv: (0.25 * kv, 0.75 * kv)),
             2.0 * np.pi),
}


def same_bits(a, b):
    """Equal arrays, bit for bit: the sign of a zero counts."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# how the coefficient changes from one piece to the next: a jump, a change
# within 1e-12 in its last bits, or none
NEAR = [1e-12, -1e-12, 3e-13, -4e-14, "up", "down"]


@st.composite
def piecewise_k_rows(draw):
    name = draw(st.sampled_from(sorted(FLUXES)))
    n = draw(st.integers(1, 12))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=4))) if n > 1 else []
    k = [draw(st.floats(1.0, 2.0))]
    for _ in cuts:
        kind = draw(st.sampled_from(["jump", "near", "same"]))
        if kind == "jump":
            k.append(draw(st.floats(1.0, 2.0)))
        elif kind == "near":
            d = draw(st.sampled_from(NEAR))
            k.append(np.nextafter(k[-1], 3.0 if d == "up" else 0.0) if isinstance(d, str)
                     else k[-1] + d)
        else:
            k.append(k[-1])
    kvals = np.repeat(k, np.diff([0] + cuts + [n]))
    # states exactly at the range ends and at every critical point in the range
    crits = {c for kv in kvals for c in FLUXES[name][0].critical(kv) if 0.0 <= c <= 1.0}
    state = st.one_of(st.sampled_from(sorted({0.0, 0.5, 1.0} | crits)), st.floats(0.0, 1.0))
    rows = draw(st.sampled_from([1, 2, 3, 6]))
    u0 = np.array(draw(st.lists(st.lists(state, min_size=n, max_size=n),
                                min_size=rows, max_size=rows)))
    return name, kvals, u0, draw(st.integers(1, 25))


def check_sweep(name, kvals, u0, nsteps):
    """The face fluxes of u0 and the sweep from it, bit for bit those of the
    one-row reference."""
    flux, speed = FLUXES[name]
    lam = 0.45 / speed
    F = face_fluxes(flux, kvals)
    ref_F = reference_face_fluxes(flux, kvals)
    for row, got in zip(u0, faces(F, u0)):
        assert same_bits(got, ref_F(row))
    got, final = _sweep(F, u0, lam, nsteps, slice(None))
    for row, states, last in zip(u0, got, final):
        assert same_bits(states, reference_sweep(ref_F, row, lam, nsteps))
        assert states.flags["C_CONTIGUOUS"]
        assert same_bits(last, states[-1])


@settings(max_examples=300, deadline=None)
@given(piecewise_k_rows())
def test_multi_row_sweep_matches_one_row_reference(problem):
    check_sweep(*problem)


@pytest.mark.parametrize("name", sorted(FLUXES))
def test_sweep_matches_the_reference_on_rows_above_the_mmap_threshold(name):
    # six rows of 3,000 cells: every row-sized buffer is above glibc's 128 KiB
    # mmap threshold; two jumps and a near face
    kvals = np.repeat([1.2, 1.7, np.nextafter(1.7, 2.0), 1.05], [800, 900, 600, 700])
    crits = [c for kv in (1.2, 1.7, 1.05) for c in FLUXES[name][0].critical(kv) if c <= 1.0]
    rng = np.random.default_rng(38)
    u0 = rng.choice(np.concatenate([[0.0, 1.0], crits, rng.uniform(0.0, 1.0, 50)]), (6, 3000))
    check_sweep(name, kvals, u0, 4)


@pytest.mark.parametrize("source", ["shifted", "sine", "burgers-shock",
                                    "standing-shock-traffic", "traffic-kato"])
def test_flux_at_a_critical_point_is_the_swept_value(source):
    # a face sees a critical point c at the upper end of its Riemann interval:
    # the critical table's Ahat(k, c) must be the value that the sweep's
    # evaluation gives at u == c, bit for bit
    if source in FLUXES:
        flux = FLUXES[source][0]
    else:
        flux = load(bundled_path(source)).flux
    kv = np.array([0.6, 1.0, 1.2, 4.0 / 3.0, 1.5, 2.0])
    crit, fcrit = _critical_table(flux, kv)
    assert len(crit)
    ahat = flux.ahat_into(kv, (3, len(kv)))
    for c, fc in zip(crit, fcrit):
        u = np.tile(np.where(np.isnan(c), flux.u_range[0], c), (3, 1))
        assert same_bits(ahat(u), np.broadcast_to(fc, u.shape))


def test_steps_after_the_first_allocate_no_row_sized_array():
    # a march of 6 rows x 3,200 cells across traffic-kato's coefficient jump:
    # once step 1 has allocated every buffer, no later step allocates as much
    # as one row-sized array (6 x 3,200 floats, 150 KB) at its peak
    flux = load(bundled_path("traffic-kato")).flux
    kvals = np.where(np.arange(3200) < 2400, 1.0, 0.6)
    F = face_fluxes(flux, kvals)
    rng = np.random.default_rng(3)
    data = 0.4 + 0.2 * rng.uniform(0.0, 1.0, (6, 3200))
    base = []

    def spied(u):
        if spied.calls == 1:
            tracemalloc.reset_peak()
            base.append(tracemalloc.get_traced_memory()[0])
        spied.calls += 1
        return F(u)
    spied.calls, spied.width = 0, F.width
    tracemalloc.start()
    try:
        _sweep(spied, data, 0.2, 6, np.array([2399, 2400]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spied.calls == 6
    assert peak - base[0] < data.nbytes


def test_near_equal_coefficients_keep_their_own_flux():
    # a face whose coefficients differ only in the last bits is no jump, yet
    # its right state meets the left cell's flux, as on a face-by-face sweep
    flux = shifted_flux()
    kvals = np.array([1.5, np.nextafter(1.5, 2.0)])
    u = np.array([0.8, 1.0])    # decreasing side: the face flux is f(kL, uR)
    assert np.abs(kvals[1] - kvals[0]) <= 1e-12
    assert flux.flux_at(kvals[0], u[1]) != flux.flux_at(kvals[1], u[1])
    assert np.all(faces(face_fluxes(flux, kvals), u) == reference_face_fluxes(flux, kvals)(u))


def test_states_a_rounding_error_outside_the_range_couple_as_before():
    # a jump face's scratch pairs are the max and min of its state and the
    # range end, so a state just below lo or above hi meets the reference's
    # one-sided maxima, max(f(uL), f(lo)) and max(f(uR), f(hi))
    flux = FLUXES["shifted"][0]
    kvals = np.array([1.3, 1.3, 1.8, 1.8])
    F, ref_F = face_fluxes(flux, kvals), reference_face_fluxes(flux, kvals)
    for u in ([0.5, -1e-13, 1.0 + 1e-13, 0.5], [0.2, -1e-13, 0.6, 0.5],
              [0.5, 0.9, 1.0 + 1e-13, 0.5], [0.5, 1.0 + 1e-13, -1e-13, 0.5]):
        u = np.array(u)
        assert same_bits(faces(F, u), ref_F(u))


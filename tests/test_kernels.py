import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from divchain import BVFunction
from divchain.conslaw import FluxSpec
from divchain.conslaw.solver import _sweep, face_fluxes

from conftest import ZEROS
from helpers import interval_domain

DOM = interval_domain(-1.0, 1.0)


def pad(u):
    """u with a zero-gradient ghost cell at each end of its last axis, as
    face_fluxes takes it."""
    return np.pad(u, [(0, 0)] * (u.ndim - 1) + [(1, 1)], mode="edge")


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
    F_first = F(pad(out[0]))
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
        got = F(pad(np.array([uL, uR])))[1]
        if uL <= uR:
            ref = min(f(w) for w in [uL, uR] + ([0.5] if uL < 0.5 < uR else []))
        else:
            ref = max(f(w) for w in [uL, uR] + ([0.5] if uR < 0.5 < uL else []))
        assert got == pytest.approx(ref, abs=1e-14)


def test_transonic_burgers_flux():
    # convex flux with the critical point inside: classical Godunov picks it
    flux, _, _ = quadratic_flux([(0.5, 0.0)], (-1.0, 1.0))
    assert face_fluxes(flux, np.zeros(2))(pad(np.array([-1.0, 1.0])))[1] == 0.0


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
    got = face_fluxes(flux, kvals)(pad(u))
    assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))


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


# how the coefficient changes from one piece to the next: a jump, a change
# within 1e-12 in its last bits, or none
NEAR = [1e-12, -1e-12, 3e-13, -4e-14, "up", "down"]


@st.composite
def piecewise_k_rows(draw):
    n = draw(st.integers(1, 12))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3))) if n > 1 else []
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
    rows = draw(st.integers(1, 3))
    state = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 0.5 * k[0], 0.5 * k[-1]]),
                      st.floats(0.0, 1.0))
    u0 = np.array(draw(st.lists(st.lists(state, min_size=n, max_size=n),
                                min_size=rows, max_size=rows)))
    return kvals, u0, draw(st.integers(1, 25))


@settings(max_examples=300, deadline=None)
@given(piecewise_k_rows())
def test_multi_row_sweep_matches_one_row_reference(problem):
    kvals, u0, nsteps = problem
    flux = shifted_flux()
    lam = 0.45 / 2.0
    got, final = _sweep(face_fluxes(flux, kvals), u0, lam, nsteps, slice(None))
    ref_F = reference_face_fluxes(flux, kvals)
    for row, states, last in zip(u0, got, final):
        assert np.all(states == reference_sweep(ref_F, row, lam, nsteps))
        assert states.flags["C_CONTIGUOUS"]
        assert np.all(last == states[-1])


def test_near_equal_coefficients_keep_their_own_flux():
    # a face whose coefficients differ only in the last bits is no jump, yet
    # its right state meets the left cell's flux, as on a face-by-face sweep
    flux = shifted_flux()
    kvals = np.array([1.5, np.nextafter(1.5, 2.0)])
    u = np.array([0.8, 1.0])    # decreasing side: the face flux is f(kL, uR)
    assert np.abs(kvals[1] - kvals[0]) <= 1e-12
    assert flux.flux_at(kvals[0], u[1]) != flux.flux_at(kvals[1], u[1])
    assert np.all(face_fluxes(flux, kvals)(pad(u)) == reference_face_fluxes(flux, kvals)(u))

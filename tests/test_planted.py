"""Planted faults: each conslaw and kato check, the tv_bound check where the
bound is tight (in 1-D, and in 2-D on an a.c. and a jump part), the oracle and Gauss-Green checks, which rest on the
adaptive quadrature, the two checks of sigma, the orientation, Vol'pert
reduction and scalar-BV agreement checks of the chain rule, and the oracle
checks of the W^{1,1} grouping, the product rule and the Div(u A) side of
the pairing must read FAIL under a fault in the code it guards.

A row names a check, a scenario (a bundled file, or a lighter copy of one
written here), and a fault: a monkeypatch of the src function the check
guards.  The same scenario without the fault must pass the check, so that
the row shows the check failing for the fault and for nothing else.  A row may also name
checks that its fault must leave passing (UNTOUCHED): a fault in one Kato
pair's rows of the shared sweep must not reach the other pairs' checks."""

import functools

import numpy as np
import pytest

from divchain import RadonMeasure, bvfunc, chainrule, field, runner
from divchain.cli import bundled_dir
from divchain.conslaw import diagnostics, solver
from divchain.conslaw.hatbasis import PiecewiseLinearWeight
from divchain.runner import run_scenario
from divchain.scenario import Scenario, parse_text

HEAD = """[scenario]
id = {id}
dim = 1
domain = -1 .. 1
experiments = {experiments}
"""

TRAFFIC = """k_pieces = 1
ahat = k*u*(1-u)
dahat_du = k*(1-2*u)
critical = 0.5
u_range = 0 .. 1
"""

# standing-shock-traffic on 100 cells and a 4 x 5 x 6 kinetic grid
SHOCK = HEAD.format(id="planted-shock", experiments="conslaw") + """[conslaw]
k_breaks =
""" + TRAFFIC + """u0 = 0.2 + 0.6*H(x1)
T = 0.8
cfl = 0.45
ncells = 100
run_kinetic = true
kinetic_grid = 4, 5, 6
kinetic_strict = true
shock_left = 0.2
shock_right = 0.8
"""

# its mirror image: a transonic rarefaction, whose face flux needs the
# critical point u = 0.5
FAN = HEAD.format(id="planted-fan", experiments="conslaw") + """[conslaw]
k_breaks =
""" + TRAFFIC + """u0 = 0.9 - 0.7*H(x1)
T = 0.8
cfl = 0.45
ncells = 400
run_kinetic = true
kinetic_grid = 4, 5, 6
"""

# its first steps only: an unstable scheme overflows before T = 0.8
FAN_START = FAN.replace("T = 0.8", "T = 0.05")

# traffic-kato's coefficient jump, with one pair whose waves cross it
KATO = HEAD.format(id="planted-kato", experiments="kato") + """[conslaw]
k_breaks = 0.5 : +1
k_pieces = 1 | 0.6
ahat = k*u*(1-u)
dahat_du = k*(1-2*u)
critical = 0.5
u_range = 0 .. 1
[kato]
T = 0.25
dx_list = 1/50
u0_a = 0.4
u0_b = 0.4 + 0.25*(1-min(1,abs((x1-0.4)/0.35))^2)^2
"""

# that pair and two of traffic-kato's, in one sweep per mesh
KATO3 = KATO.replace("planted-kato", "planted-kato3").replace(
    "dx_list = 1/50", "dx_list = 1/40, 1/80") + """\
u0_a2 = 0.4 + 0.2*(1-min(1,abs((x1+0.55)/0.25))^2)^2
u0_b2 = 0.4 + 0.2*(1-min(1,abs((x1+0.35)/0.25))^2)^2
u0_a3 = 0.4 + 0.15*(1-min(1,abs((x1+0.5)/0.2))^2)^2
u0_b3 = 0.4 + 0.15*(1-min(1,abs((x1+0.25)/0.2))^2)^2
"""

# Div v = 2 delta_0: the whole divergence is the jump term
VOLPERT = (bundled_dir() / "volpert-heaviside.scn").read_text(encoding="utf-8")
# |Div v| = 1.5 delta_0 against sigma = 2 delta_0: the bound has slack 0.5
SIGN_CONST = (bundled_dir() / "sign-const.scn").read_text(encoding="utf-8")
# |Div v| = 2|x1| dx = M |Du| on the sub-boxes away from 0: no slack at all
W11_SIGN_XSQ = (bundled_dir() / "w11-sign-xsq.scn").read_text(encoding="utf-8")
# u = 1 against b = x1: |Div v| = dx = sigma and |Du| = 0, so sigma has no slack
UNIT_STATE = HEAD.format(id="planted-unit-state", experiments="chain") + """[field]
b = x1
M = 1
t_range = -1 .. 1
diva = 1
sigma_t_samples = 0
[u]
breaks =
pieces = 1
grads = 0
sup = 1
"""

# the same on [-1, 1]^2 with b = (x1, 0): |Div v| = dx = sigma on each sub-box
HEAD_2D = HEAD.replace("dim = 1\ndomain = -1 .. 1", "dim = 2\ndomain = -1 .. 1 ; -1 .. 1")
UNIT_STATE_2D = HEAD_2D.format(id="planted-unit-state-2d", experiments="chain") + """[field]
b = x1, 0
M = 1
t_range = -1 .. 1
diva = 1
sigma_t_samples = 0
[u]
regions = (x1 < 2): 1 grad 0, 0
sup = 1
"""
# u = 1 against b = (sign(x1), 0): |Div v| = 2 H^1 on the line x1 = 0 = sigma,
# so the sub-boxes beside the line have no slack
SIGN_LINE = HEAD_2D.format(id="planted-sign-line", experiments="chain") + """[singular]
curves = vline 0 from -1 to 1 side +1
[field]
b = sign(x1), 0
M = 1
t_range = -1 .. 1
b_plus = 1, 0
b_minus = -1, 0
sigma_t_samples = 0
[u]
regions = (x1 < 2): 1 grad 0, 0
sup = 1
"""

# product-sin-heaviside with one experiment each: sin(u) and u against sign(x1)
PRODUCT = (bundled_dir() / "product-sin-heaviside.scn").read_text(encoding="utf-8")
PRODUCT_ONLY = PRODUCT.replace("experiments = chain, product, anzellotti",
                               "experiments = product")
ANZELLOTTI_ONLY = PRODUCT.replace("experiments = chain, product, anzellotti",
                                  "experiments = anzellotti")

# b = t against u = 0 | 2, with no singular set: the whole divergence is the
# jump term, which chain_bv_scalar takes from its trace-interval integral of
# b* = t (bv-scalar-signt-2h cannot carry that row: its b* is 0 on the jump)
BV_SCALAR_T = HEAD.format(id="planted-bv-scalar-t", experiments="bv-scalar") + """[field]
b = t
M = 3
t_range = -3 .. 3
sigma_t_samples = 0, 1
[u]
breaks = 0 : +1
pieces = 0 | 2
grads = 0 | 0
sup = 2
"""


def scaled(cls, name, factor):
    """cls.name with its result scaled by factor."""
    orig = getattr(cls, name)
    return lambda *args, **kw: orig(*args, **kw) * factor


def fault_one_gauss_point_short(mp):
    # the flux-weighted v-integrals lose their exactness: 2 points become 1
    orig = PiecewiseLinearWeight.weighted_to_upper
    mp.setattr(PiecewiseLinearWeight, "weighted_to_upper",
               lambda self, g, u, degree=None: orig(self, g, u, 0 if degree else degree))


def fault_wrong_sign_flux_part(mp):
    # every flux-weighted v-integral enters with the wrong sign
    mp.setattr(PiecewiseLinearWeight, "weighted_to_upper",
               scaled(PiecewiseLinearWeight, "weighted_to_upper", -1.0))


def fault_moment_off_by_1e6(mp):
    # \int w v to a relative 1e-6.  It enters only the time part, which pairs
    # to zero on a standing shock, so this row runs on the moving fan
    mp.setattr(PiecewiseLinearWeight, "moment_cdf",
               scaled(PiecewiseLinearWeight, "moment_cdf", 1 + 1e-6))


def fault_central_flux(mp):
    # the face flux averages its two one-sided fluxes: no upwinding
    def face_fluxes(flux, kvals):
        kpad = np.concatenate([kvals[:1], kvals, kvals[-1:]])

        def F(u):
            fc = flux.flux_at(kpad, u)
            return 0.5 * (fc[..., :-1] + fc[..., 1:])
        return F
    mp.setattr(solver, "face_fluxes", face_fluxes)


def fault_critical_points_dropped(mp):
    # the face flux takes the min/max of Ahat over the Riemann fan at its ends only
    mp.setattr(solver, "_critical_table",
               lambda flux, kv: (np.empty((0, len(kv))), []))


def fault_pair1_final_doubled(mp):
    # the sweep that _kato_rows reads hands back pair 1's final states (rows
    # 2 and 3) doubled; the rows of pairs 0 and 2 are untouched
    orig = diagnostics._solve

    def solve(*args):
        kvals, times, traces, final = orig(*args)
        final[2:4] *= 2.0
        return kvals, times, traces, final
    mp.setattr(diagnostics, "_solve", solve)


def fault_jump_term_counted_twice(mp):
    # the breakdown adds the jump term twice: 3 delta_0 on sign-const
    orig = chainrule.ChainRuleBreakdown.__init__
    mp.setattr(chainrule.ChainRuleBreakdown, "__init__",
               lambda self, diva, divc, ac_u, cantor_u, jump, **kw:
               orig(self, diva, divc, ac_u, cantor_u, jump * 2.0, **kw))


def fault_term3_off_by_1e6(mp):
    # <b(x, u), grad u> to a relative 1e-6
    orig = chainrule._b_dot_grad
    mp.setattr(chainrule, "_b_dot_grad",
               lambda field, u: lambda pts, uv: (1 + 1e-6) * orig(field, u)(pts, uv))


def fault_jump_term_off_by_1e3(mp):
    # chain_dm hands the runner a jump term 1e-3 too large, and a total that sums it
    def chain_dm(*args, **kw):
        br = chainrule.chain_dm(*args, **kw)
        return chainrule.ChainRuleBreakdown(br.term_diva, br.term_divc, br.term_ac_u,
                                            br.term_cantor_u, br.term_jump * (1 + 1e-3),
                                            jump_symmetric=br.jump_symmetric)
    mp.setattr(runner, "chain_dm", chain_dm)


def fault_w11_ac_term_off_by_1e3(mp):
    # chain_w11 hands the runner a <b(x, u), grad u> term 1e-3 too large
    def chain_w11(*args, **kw):
        br = chainrule.chain_w11(*args, **kw)
        return chainrule.ChainRuleBreakdown(br.term_diva, br.term_divc, br.term_ac_u * (1 + 1e-3),
                                            br.term_cantor_u, br.term_jump)
    mp.setattr(runner, "chain_w11", chain_w11)


def fault_product_jump_off_by_1e3(mp):
    # product_rule hands the runner a jump term 1e-3 too large: on
    # product-sin-heaviside, the whole of Div(A h(u)) and of Div(u A)
    def product_rule(*args, **kw):
        br = chainrule.product_rule(*args, **kw)
        return chainrule.ChainRuleBreakdown(br.term_diva, br.term_divc, br.term_ac_u,
                                            br.term_cantor_u, br.term_jump * (1 + 1e-3))
    mp.setattr(runner, "product_rule", product_rule)


def fault_sigma_without_jumps(mp):
    # sigma loses its jump part: nothing on 0 dominates the jump of Div_x B
    orig = field.ParamField.sigma

    def sigma(self, t_samples):
        s = orig(self, t_samples)
        return RadonMeasure(s.domain, ac=s.ac, ac_singular=s.ac_singular, cantor=s.cantor,
                            cantor_density=s.cantor_density)
    mp.setattr(field.ParamField, "sigma", sigma)


def density_short_by_1e3(cls, name):
    """cls.name, whose nonnegative measure comes back with its a.c. density
    0.1% short and still declared nonnegative."""
    orig = getattr(cls, name)

    def short(*args):
        m = orig(*args)
        return RadonMeasure(m.domain, ac=lambda pts: 0.999 * m.ac(pts), ac_singular=m.ac_singular,
                            jumps=m.jumps, cantor=m.cantor, nonnegative=True)
    return short


def fault_du_density_short_by_1e3(mp):
    # |Du| = 2|x1| dx on w11-sign-xsq, 0.1% short
    mp.setattr(bvfunc.BVFunction, "variation_measure",
               density_short_by_1e3(bvfunc.BVFunction, "variation_measure"))


def fault_sigma_density_short_by_1e3(mp):
    # sigma = dx on the unit state, 0.1% short
    mp.setattr(field.ParamField, "sigma", density_short_by_1e3(field.ParamField, "sigma"))


def fault_sigma_jump_density_short_by_1e3(mp):
    # sigma = 2 H^1 on the line, its jump density 0.1% short and still nonnegative
    orig = field.ParamField.sigma

    def sigma(self, t_samples):
        s = orig(self, t_samples)
        jumps = {k: (comp, lambda pts, nus, g=g: 0.999 * g(pts, nus))
                 for k, (comp, g) in s.jumps.items()}
        return RadonMeasure(s.domain, ac=s.ac, ac_singular=s.ac_singular, jumps=jumps,
                            cantor=s.cantor, cantor_density=s.cantor_density, nonnegative=True)
    mp.setattr(field.ParamField, "sigma", sigma)


def fault_flipped_traces_unswapped(mp):
    # u's reversed orientation flips nu but keeps u+ and u- where they were
    mp.setattr(bvfunc.BVFunction, "flipped", lambda self: bvfunc.BVFunction(
        self.domain, self.pieces, self.jump_set.flipped(), u_plus=self.u_plus,
        u_minus=self.u_minus, cantor=self.cantor, sup_bound=self.sup_bound))


def fault_u_sides_swapped(mp):
    # the jump terms on J_u read (u-, u+) where they mean (u+, u-)
    orig = chainrule._u_sides
    mp.setattr(chainrule, "_u_sides", lambda u, pts, in_j: orig(u, pts, in_j)[::-1])


def fault_upper_integral_high_by_1e6(mp):
    # chain_bv_scalar's trace-interval integrals come back 1e-6 high, relatively
    # (an absolute shift would cancel in the difference of the two integrals)
    mp.setattr(chainrule, "integrate_to_upper", scaled(chainrule, "integrate_to_upper", 1 + 1e-6))


def fault_green_lhs_off_by_1e5(mp):
    # green_check's extrapolated Div A of the region, to a relative 1e-5
    def green_check(field, omega):
        lhs, rhs = chainrule.green_check(field, omega)
        return lhs * (1 + 1e-5), rhs
    mp.setattr(runner, "green_check", green_check)


PLANTED = [
    ("conslaw:kinetic_nonnegative", SHOCK, fault_wrong_sign_flux_part),
    ("conslaw:kinetic_identity", FAN, fault_moment_off_by_1e6),
    ("conslaw:shock_dissipation", SHOCK, fault_one_gauss_point_short),
    ("conslaw:max_principle", FAN_START, fault_central_flux),
    ("conslaw:bv_bounded", FAN_START, fault_central_flux),
    ("conslaw:entropy_residual", FAN, fault_critical_points_dropped),
    ("kato:pair0", KATO, fault_critical_points_dropped),
    ("kato:pair1", KATO3, fault_pair1_final_doubled),
    ("chain:tv_bound", SIGN_CONST, fault_jump_term_counted_twice),
    ("w11:tv_bound", W11_SIGN_XSQ, fault_term3_off_by_1e6),
    ("w11:tv_bound", W11_SIGN_XSQ, fault_du_density_short_by_1e3),
    ("chain:tv_bound", UNIT_STATE, fault_sigma_density_short_by_1e3),
    ("chain:tv_bound", UNIT_STATE_2D, fault_sigma_density_short_by_1e3),
    ("chain:tv_bound", SIGN_LINE, fault_sigma_jump_density_short_by_1e3),
    ("chain:oracle_equivalence", VOLPERT, fault_jump_term_off_by_1e3),
    ("green:closure", SIGN_CONST, fault_green_lhs_off_by_1e5),
    ("sigma:primitive_dominated", SIGN_CONST, fault_sigma_without_jumps),
    ("sigma:singular_set_density", SIGN_CONST, fault_sigma_without_jumps),
    ("chain:orientation_invariance", VOLPERT, fault_flipped_traces_unswapped),
    ("chain:volpert_reduction", VOLPERT, fault_u_sides_swapped),
    ("bv-scalar:matches_chain_dm", BV_SCALAR_T, fault_upper_integral_high_by_1e6),
    ("w11:oracle_equivalence", W11_SIGN_XSQ, fault_w11_ac_term_off_by_1e3),
    ("product:oracle_equivalence", PRODUCT_ONLY, fault_product_jump_off_by_1e3),
    ("anzellotti:product_oracle", ANZELLOTTI_ONLY, fault_product_jump_off_by_1e3),
]

# checks that a row's fault must leave passing: the pairs next to pair 1
UNTOUCHED = {"kato:pair1": ("kato:pair0", "kato:pair2")}

# checks that pass by construction, and why
EXEMPT = {
    "conslaw:kinetic_min_cell_reported": "a report row: it records min_cell and always passes",
}

def verdicts(text):
    """Each check's pass flag on the scenario text."""
    return {c["name"]: c["pass"] for c in run_scenario(Scenario(parse_text(text))).checks}


@functools.lru_cache
def unfaulted(text):
    return verdicts(text)


def row_id(i):
    """A row's id: its check, then the fault's name when an earlier row has
    that check, then the file's id when an earlier row has that check and fault."""
    check, text, fault = PLANTED[i]
    if check not in [r[0] for r in PLANTED[:i]]:
        return check
    rid = f"{check}-{fault.__name__[len('fault_'):]}"
    if (check, fault) in [(r[0], r[2]) for r in PLANTED[:i]]:
        rid += "-" + text.split("\nid = ", 1)[1].split("\n", 1)[0]
    return rid


IDS = [row_id(i) for i in range(len(PLANTED))]


@pytest.mark.parametrize("check, text, fault", PLANTED, ids=IDS)
def test_planted_fault_fails_the_check(check, text, fault, monkeypatch):
    assert unfaulted(text)[check] is True
    fault(monkeypatch)
    faulted = verdicts(text)
    assert faulted[check] is False
    for other in UNTOUCHED.get(check, ()):
        assert unfaulted(text)[other] is True and faulted[other] is True


def test_every_conslaw_and_kato_check_has_a_row():
    names = {name for _, text, _ in PLANTED for name in unfaulted(text)
             if name.startswith(("conslaw:", "kato:"))}
    assert names == ({check for check, _, _ in PLANTED if check.startswith(("conslaw:", "kato:"))}
                     | set(EXEMPT) | set().union(*UNTOUCHED.values()))

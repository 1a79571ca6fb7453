import numpy as np
import pytest

from divchain.cantor import IFSSpec
from divchain.cli import bundled_paths
from divchain.errors import ScenarioParseError, ScenarioValidationError
from divchain.measure import plateau_bump
from divchain.rectifiable import Segment
from divchain.scenario import Scenario, load, parse_text

MINIMAL = """
[scenario]
id = demo
dim = 1
domain = -1 .. 1
experiments = chain

[singular]
points = 0 : +1

[field]
b = sign(x1)
M = 1
b_plus = 1
b_minus = -1

[u]
breaks =
pieces = 0.5
grads = 0
sup = 0.5
"""


def test_minimal_scenario_builds():
    scn = Scenario(parse_text(MINIMAL))
    assert scn.id == "demo"
    assert scn.field.M == 1.0
    assert scn.u.eval(np.array([[0.3]]))[0] == 0.5
    assert not scn.is_cantor
    assert scn.tol_abs == 1e-7


def test_parse_error_positions():
    with pytest.raises(ScenarioParseError) as e:
        parse_text("[scenario\nid = x")
    assert e.value.line == 1
    with pytest.raises(ScenarioParseError) as e:
        parse_text("[scenario]\nnonsense line\n")
    assert e.value.line == 2
    with pytest.raises(ScenarioParseError):
        parse_text("key = before section")


def test_duplicate_key_rejected():
    with pytest.raises(ScenarioParseError):
        parse_text("[scenario]\nid = a\nid = b\n")


def test_unknown_experiment_rejected():
    bad = MINIMAL.replace("experiments = chain", "experiments = warp")
    with pytest.raises(ScenarioValidationError):
        Scenario(parse_text(bad))


def test_singular_point_outside_domain_rejected():
    bad = MINIMAL.replace("points = 0 : +1", "points = 5 : +1")
    with pytest.raises(ScenarioValidationError):
        Scenario(parse_text(bad))


def test_cantor_scenario_relaxes_tolerances():
    txt = MINIMAL.replace("[u]\nbreaks =", "[u]\ncantor_amplitude = 1\nbreaks =")
    txt = txt.replace("domain = -1 .. 1", "domain = -1 .. 2")
    scn = Scenario(parse_text(txt))
    assert scn.is_cantor and scn.tol_abs == 1e-5


def test_bundled_corpus_is_large_enough():
    paths = bundled_paths()
    assert len(paths) >= 12
    for p in paths:
        scn = load(p)       # every bundled file parses and validates
        assert scn.id


def _ramp_integral(support, plateau):
    # a plateau bump integrates to its plateau width plus half of each ramp,
    # since the quintic step satisfies s(x) + s(1 - x) = 1
    return plateau[1] - plateau[0] + 0.5 * (plateau[0] - support[0] + support[1] - plateau[1])


HLINE = """
[scenario]
id = hline
dim = 2
domain = -1 .. 1 ; -1 .. 1
experiments = chain

[singular]
curves = hline 0 from -1 to 1 side +1

[field]
b = x1*t, sign(x2)*(1+t)
M = 4
diva = t
b_plus = x1*t, 1+t
b_minus = x1*t, -(1+t)

[u]
regions = (x1 < 2): 0.5 grad 0, 0
sup = 0.5
"""


def test_hline_curve_div_measure_matches_closed_form():
    scn = Scenario(parse_text(HLINE))
    seg, = scn.singular.pieces
    assert isinstance(seg, Segment) and seg.axis == 1
    s = np.array([-0.5, 0.25])
    assert np.array_equal(seg.points(s), [[-0.5, 0.0], [0.25, 0.0]])
    assert np.array_equal(seg.normals(s), [[0.0, 1.0], [0.0, 1.0]])
    assert seg.key() == ("h", 0.0, -1.0, 1.0)
    assert scn.singular.y_breaks() == [0.0]
    flipped = scn.field.flipped()
    assert flipped.singular_set.pieces[0].side == -1
    assert flipped.singular_set.pieces[0].key() == seg.key()
    sx, px, sy, py = (-0.6, 0.6), (-0.2, 0.2), (-0.5, 0.5), (-0.1, 0.1)
    phi = plateau_bump((sx, sy), (px, py))
    ix, iy = _ramp_integral(sx, px), _ramp_integral(sy, py)
    for t in (0.5, -1.5):
        # Div_x b = t L^2 + 2(1+t) H^1 on {x2 = 0}; phi(x1, 0) is the x-profile
        want = t * ix * iy + 2.0 * (1.0 + t) * ix
        for f in (scn.field, flipped):
            assert f.div_measure(t).apply(phi) == pytest.approx(want, abs=1e-9)


def test_envelope_joins_sigma():
    txt = MINIMAL.replace("b = sign(x1)\nM = 1\nb_plus = 1\nb_minus = -1\n",
                          "b = sign(x1)*(1+t) + x1*t\nM = 4\ndiva = t\n"
                          "b_plus = 1+t + x1*t\nb_minus = -(1+t) + x1*t\n"
                          "sigma_t_samples = 0, 0.5, 1\n")
    bare = Scenario(parse_text(txt))
    # lub over t in {0, 0.5, 1}: |t| <= 1 per unit length, 2(1+t) <= 4 at the jump
    assert bare.field.sigma(bare.sigma_samples).total_variation() == pytest.approx(6.0)
    scn = Scenario(parse_text(txt.replace("diva = t\n",
                                          "diva = t\nenvelope_ac = 5\nenvelope_jump = 10\n")))
    sigma = scn.field.sigma(scn.sigma_samples)
    assert sigma.total_variation() == pytest.approx(5.0 * 2.0 + 10.0)
    support, plateau = (-0.8, 0.4), (-0.3, 0.1)
    phi = plateau_bump((support,), (plateau,))
    assert sigma.apply(phi) == pytest.approx(5.0 * _ramp_integral(support, plateau) + 10.0)


def test_cantor_base_rescales_the_cantor_function():
    txt = MINIMAL.replace("domain = -1 .. 1", "domain = -1 .. 3")
    txt = txt.replace("[singular]\npoints = 0 : +1\n", "")
    txt = txt.replace("b = sign(x1)\nM = 1\nb_plus = 1\nb_minus = -1\n",
                      "b = t*Cantor(x1)\nM = 4\ncantor_base = -1 .. 3\n")
    txt = txt.replace("[u]\n", "[u]\ncantor_amplitude = 1\n").replace("sup = 0.5", "sup = 1.5")
    scn = Scenario(parse_text(txt))
    assert scn.cantor_spec == IFSSpec(-1.0, 3.0)
    x = np.array([[-1.0], [1.0 / 3.0], [1.0], [5.0 / 3.0], [3.0]])
    # x1 = 1/3 and 5/3 are the ends of the base's middle third: Cantor(x1) = 0.5
    assert np.allclose(scn.field.eval(x, 1.0)[:, 0], [0.0, 0.5, 0.5, 0.5, 1.0], atol=1e-12)
    assert scn.u.eval(np.array([[1.0 / 3.0]]))[0] == pytest.approx(1.0, abs=1e-12)
